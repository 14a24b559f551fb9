package gen

import (
	"fmt"
	"slices"

	"plb/internal/xrand"
)

// Adversary plans task generation against observed loads. Plan is
// called sequentially once per step (before the parallel part of the
// step), so implementations may keep state without locking.
type Adversary interface {
	// Name identifies the adversary in experiment tables.
	Name() string
	// Plan adds to gens[proc] the number of tasks each processor
	// should generate this step, appends to wrote the id of every entry
	// it set (in any order, repeats allowed) and returns the extended
	// slice. An entry Plan sets without reporting it is lost: the
	// caller clamps and later zeroes the reported entries only. loads
	// is read-only; gens is all zero when Plan runs.
	Plan(now int64, loads []int32, gens []int32, r *xrand.Stream, wrote []int32) []int32
}

// Adversarial is the paper's fourth model: an adversary drives
// generation, constrained so that within any window of WindowT steps a
// processor changes its load on its own by at most PerWindowBudget
// tasks, and the total system load never exceeds SystemBound.
// Consumption is deterministic: one task per step when present.
//
// The enforcement is what makes the model the paper's: whatever the
// wrapped Adversary asks for is clamped to the per-processor window
// budget first and the global bound second.
type Adversarial struct {
	// Adv is the planning strategy being constrained.
	Adv Adversary
	// WindowT is the budget window length (the paper uses
	// T = (log log n)^2).
	WindowT int
	// PerWindowBudget caps a processor's generation per window (the
	// paper allows O(T)).
	PerWindowBudget int
	// SystemBound is the upper bound B on total system load.
	SystemBound int64

	r       *xrand.Stream
	gens    []int32
	planned []int32 // ascending ids of this step's plan (gens is zero elsewhere)
	usedWin []int32 // generation used by each processor in the current window
	winIDs  []int32 // ids planned in the current window (usedWin is zero elsewhere)
	// ClampedWindow and ClampedSystem count how many requested tasks
	// were denied by each constraint (observability for tests and
	// experiments).
	ClampedWindow int64
	ClampedSystem int64
}

// NewAdversarial wires an adversary with the paper's constraints.
// seed derives the adversary's private randomness.
func NewAdversarial(adv Adversary, windowT, perWindowBudget int, systemBound int64, seed uint64) (*Adversarial, error) {
	if adv == nil {
		return nil, fmt.Errorf("gen: Adversarial requires an Adversary")
	}
	if windowT < 1 || perWindowBudget < 0 || systemBound < 0 {
		return nil, fmt.Errorf("gen: invalid Adversarial(windowT=%d, budget=%d, bound=%d)",
			windowT, perWindowBudget, systemBound)
	}
	return &Adversarial{
		Adv:             adv,
		WindowT:         windowT,
		PerWindowBudget: perWindowBudget,
		SystemBound:     systemBound,
		r:               xrand.New(seed),
	}, nil
}

// Name implements Model.
func (a *Adversarial) Name() string {
	return fmt.Sprintf("adversarial(%s,T=%d,budget=%d,B=%d)",
		a.Adv.Name(), a.WindowT, a.PerWindowBudget, a.SystemBound)
}

// BeginStep implements StepAware: runs the adversary's plan, clamps it
// to the model's constraints and returns the planned ids. Only those
// ids are zeroed, reset and clamped, so a step costs the plan's size
// (plus one pass over loads for the system total when anything is
// planned), not n.
func (a *Adversarial) BeginStep(now int64, loads []int32) []int32 {
	if len(a.gens) != len(loads) {
		a.gens = make([]int32, len(loads))
		a.usedWin = make([]int32, len(loads))
		a.planned, a.winIDs = a.planned[:0], a.winIDs[:0]
	}
	if now%int64(a.WindowT) == 0 {
		for _, p := range a.winIDs {
			a.usedWin[p] = 0
		}
		a.winIDs = a.winIDs[:0]
	}
	for _, p := range a.planned {
		a.gens[p] = 0
	}
	planned := a.Adv.Plan(now, loads, a.gens, a.r, a.planned[:0])
	slices.Sort(planned)
	planned = slices.Compact(planned)
	a.planned = planned
	if len(planned) == 0 {
		return planned
	}

	// Current total system load (authoritative from loads).
	var total int64
	for _, l := range loads {
		total += int64(l)
	}

	// Clamp in ascending id order; an unplanned processor would
	// request nothing and change nothing here.
	for _, i := range planned {
		g := a.gens[i]
		if g < 0 {
			g = 0
		}
		// Per-processor window budget.
		if room := int32(a.PerWindowBudget) - a.usedWin[i]; g > room {
			a.ClampedWindow += int64(g - room)
			g = room
			if g < 0 {
				g = 0
			}
		}
		// Global bound. Consumption this step frees at most len(loads)
		// slots, but we enforce conservatively against the bound as-is.
		if total+int64(g) > a.SystemBound {
			allowed := a.SystemBound - total
			if allowed < 0 {
				allowed = 0
			}
			a.ClampedSystem += int64(g) - allowed
			g = int32(allowed)
		}
		a.usedWin[i] += g
		total += int64(g)
		a.gens[i] = g
	}
	a.winIDs = append(a.winIDs, planned...)
	return planned
}

// Generate implements Model: returns the planned, clamped generation.
func (a *Adversarial) Generate(proc int, _ *xrand.Stream, _ int64) int {
	return int(a.gens[proc])
}

// WantConsume implements Model: the adversarial scenario consumes one
// task per step when present.
func (a *Adversarial) WantConsume(_ int, _ *xrand.Stream, _ int64) int { return 1 }

// Burst is an adversary that, at the start of every window, dumps its
// full window budget onto a random subset of processors. It creates
// the extreme skew the balancer must smooth out.
type Burst struct {
	// Targets is the number of processors hit per window.
	Targets int
	// Amount is the number of tasks dumped on each target (clamped by
	// the model's budget).
	Amount int
	// Window is the burst period in steps.
	Window int
}

// Name implements Adversary.
func (b Burst) Name() string {
	return fmt.Sprintf("burst(targets=%d,amount=%d,window=%d)", b.Targets, b.Amount, b.Window)
}

// Plan implements Adversary.
func (b Burst) Plan(now int64, loads []int32, gens []int32, r *xrand.Stream, wrote []int32) []int32 {
	w := b.Window
	if w < 1 {
		w = 1
	}
	if now%int64(w) != 0 {
		return wrote
	}
	k := b.Targets
	if k > len(loads) {
		k = len(loads)
	}
	if k <= 0 {
		return wrote
	}
	targets := make([]int, k)
	r.SampleDistinct(targets, k, len(loads), -1)
	for _, t := range targets {
		gens[t] = int32(b.Amount)
		wrote = append(wrote, int32(t))
	}
	return wrote
}

// Tree is an adversary modeling tree-structured computation: each step,
// every processor whose queue is non-empty has its in-service task
// spawn children with probability Spawn, Branch children at a time.
// This is the paper's motivating example for the adversarial model
// ("each task currently being performed is able to generate a constant
// number of new tasks"). Roots seeds fresh task trees on random
// processors to keep the computation alive.
type Tree struct {
	// Spawn is the per-step probability that a busy processor's head
	// task spawns children.
	Spawn float64
	// Branch is the number of children spawned at once.
	Branch int
	// Roots is the expected number of fresh root tasks injected
	// system-wide per step (Poisson-thinned over processors).
	Roots float64
}

// Name implements Adversary.
func (t Tree) Name() string {
	return fmt.Sprintf("tree(spawn=%g,branch=%d,roots=%g)", t.Spawn, t.Branch, t.Roots)
}

// Plan implements Adversary.
func (t Tree) Plan(_ int64, loads []int32, gens []int32, r *xrand.Stream, wrote []int32) []int32 {
	for i, l := range loads {
		if l > 0 && r.Bernoulli(t.Spawn) {
			gens[i] += int32(t.Branch)
			wrote = append(wrote, int32(i))
		}
	}
	roots := r.Poisson(t.Roots)
	for j := 0; j < roots; j++ {
		i := r.Intn(len(loads))
		gens[i]++
		wrote = append(wrote, int32(i))
	}
	return wrote
}

// Hotspot is an adversary that aims all generation at one processor,
// moving the hotspot every Window steps. It is the worst case for
// locality-preserving balancers.
type Hotspot struct {
	// Rate is the number of tasks pushed at the hotspot per step.
	Rate int
	// Window is how long a hotspot persists before moving.
	Window int

	current int
	picked  bool
}

// Name implements Adversary.
func (h *Hotspot) Name() string {
	return fmt.Sprintf("hotspot(rate=%d,window=%d)", h.Rate, h.Window)
}

// Plan implements Adversary.
func (h *Hotspot) Plan(now int64, loads []int32, gens []int32, r *xrand.Stream, wrote []int32) []int32 {
	w := h.Window
	if w < 1 {
		w = 1
	}
	if !h.picked || now%int64(w) == 0 {
		h.current = r.Intn(len(loads))
		h.picked = true
	}
	gens[h.current] += int32(h.Rate)
	return append(wrote, int32(h.current))
}
