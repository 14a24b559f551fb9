// Package faults is the deterministic fault-injection substrate: it
// turns a declarative, seedable Plan (message drop/duplicate/delay
// probabilities, processor crash/recover schedules, network partitions,
// straggler slowdowns) into per-event verdicts. Link fates have one
// consumer, the internal/transport/chaostrans middleware, over the
// in-memory bus and sockets alike; crash schedules drive the steppers
// (internal/sim, internal/proto) and the node.Fleet supervisor.
//
// The paper assumes a perfect unit-latency network and immortal
// processors; this package exists to measure how far the protocol's
// guarantees degrade when that assumption is broken. Two properties
// are load-bearing:
//
//   - Determinism: every verdict is a pure hash of (seed, step,
//     sequence number, endpoints), so the same Plan yields the same
//     fault trace regardless of call interleaving — runs stay
//     bit-reproducible, and a failure found at drop rate 0.05 with
//     seed 7 replays exactly.
//   - Isolation of crashed processors: Fate never delivers a message
//     to (or from) a processor that is crashed at the decision step,
//     and Crashed is the single source of truth the steppers use to
//     freeze generation, consumption, and protocol participation.
package faults

import (
	"fmt"

	"plb/internal/xrand"
)

// Crash is one scheduled outage of a single processor.
type Crash struct {
	// Proc is the processor id.
	Proc int32
	// At is the first step the processor is down.
	At int64
	// Recover is the first step the processor is up again; negative
	// means it never recovers.
	Recover int64
}

// covers reports whether the outage covers step.
func (c Crash) covers(step int64) bool {
	return step >= c.At && (c.Recover < 0 || step < c.Recover)
}

// Plan declares a fault schedule. The zero value injects nothing;
// presets (Lossy, Partition, CrashWindow, Stragglers, Flap) build common
// single-fault plans and Merge composes them. Probabilities outside
// [0, 1] are clamped by Normalized (called by NewInjector), never
// rejected, so randomly generated plans are always runnable.
type Plan struct {
	// Seed derives every random choice of the plan (fault coins, the
	// crashed and straggler sets). Zero lets the consumer substitute
	// its own seed (proto uses the balancer seed) so that fault traces
	// vary with the run by default.
	Seed uint64

	// Drop, Dup and Delay are per-message probabilities of losing,
	// duplicating and delaying a message.
	Drop, Dup, Delay float64
	// MaxDelay is the largest number of extra steps a delayed message
	// waits (uniform in [1, MaxDelay]); forced to at least 1 when
	// Delay > 0.
	MaxDelay int

	// PartitionGroups > 1 splits processors into groups (p mod
	// PartitionGroups) whose cross-group messages are dropped while
	// step < PartitionUntil.
	PartitionGroups int
	PartitionUntil  int64

	// Crashes schedules explicit outages.
	Crashes []Crash
	// CrashK (a count) or CrashFrac (a fraction of n, used when
	// CrashK == 0) crashes that many distinct random processors at
	// CrashAt, recovering at CrashRecover (negative: never).
	CrashK       int
	CrashFrac    float64
	CrashAt      int64
	CrashRecover int64

	// StragglerFrac marks that fraction of processors as stragglers:
	// every message they send is delayed by Slowdown-1 extra steps.
	StragglerFrac float64
	// Slowdown is the straggler slowdown factor (>= 2 to have any
	// effect; forced to 2 when StragglerFrac > 0 and Slowdown < 2).
	Slowdown int

	// FlapK (a count) or FlapFrac (a fraction of n, used when
	// FlapK == 0) marks that many distinct random processors as
	// flappers: each repeats crash/recover cycles of FlapPeriod steps,
	// down for the first FlapDuty fraction of every cycle. Cycles are
	// staggered per processor (a seeded offset in [0, FlapPeriod)), so
	// the flapping population churns continuously instead of dying in
	// lockstep — the adversarial input that punishes naive failure
	// detectors, whose suspicion timeouts must chase peers that come
	// back just after being written off.
	FlapK      int
	FlapFrac   float64
	FlapPeriod int64
	FlapDuty   float64

	// Redistribute makes a recovering processor scatter its frozen
	// queue across the system instead of resuming with it (the
	// "redistribute on recovery" policy).
	Redistribute bool

	// ChurnJoin and ChurnLeave schedule elastic membership: every
	// ChurnPeriod steps, ChurnJoin absent slots begin the join protocol
	// and ChurnLeave active processors begin draining (stop generating,
	// hand their queues off, depart). Joins fire at the top of each
	// period, leaves half a period later, so a period matched to a
	// diurnal workload grows the fleet into the peak and shrinks it out
	// of the trough. Which slots join and which processors drain is
	// decided by the membership layer, not here — the plan only owns
	// the deterministic schedule.
	ChurnJoin, ChurnLeave int
	// ChurnPeriod is the churn tick spacing in steps (>= 2 when churn
	// is active; the first join tick is at step ChurnPeriod).
	ChurnPeriod int64
	// ChurnSpare is how many processor slots start outside the system
	// (the join pool, taken from the top ids). 0 derives n/8 when the
	// plan schedules joins and 0 otherwise.
	ChurnSpare int

	// DrainK (a count) or DrainFrac (a fraction of n, used when
	// DrainK == 0) drains that many processors in one batch at step
	// DrainAt — the scale-in preset: they stop generating, hand off
	// custody block by block, and depart.
	DrainK    int
	DrainFrac float64
	DrainAt   int64
}

// Lossy returns a plan dropping each message with probability p.
func Lossy(p float64) Plan { return Plan{Drop: p} }

// Partition returns a plan splitting processors into groups whose
// cross-group traffic is dropped for the first steps steps.
func Partition(groups int, steps int64) Plan {
	return Plan{PartitionGroups: groups, PartitionUntil: steps}
}

// CrashWindow returns a plan crashing k distinct random processors at
// step at and recovering them at step recover (negative: never).
func CrashWindow(k int, at, recover int64) Plan {
	return Plan{CrashK: k, CrashAt: at, CrashRecover: recover}
}

// Stragglers returns a plan slowing frac of the processors down by
// factor slowdown.
func Stragglers(frac float64, slowdown int) Plan {
	return Plan{StragglerFrac: frac, Slowdown: slowdown}
}

// Flap returns a plan making k distinct random processors cycle
// through repeated crash/recover windows: each cycle lasts period
// steps and the processor is down for the first duty fraction of it
// (staggered per processor).
func Flap(k int, period int64, duty float64) Plan {
	return Plan{FlapK: k, FlapPeriod: period, FlapDuty: duty}
}

// Merge overlays q on p: probabilities and factors take q's value
// where q sets one, crash schedules concatenate. Seed keeps p's value
// unless only q has one.
func (p Plan) Merge(q Plan) Plan {
	out := p
	if q.Seed != 0 {
		out.Seed = q.Seed
	}
	if q.Drop != 0 {
		out.Drop = q.Drop
	}
	if q.Dup != 0 {
		out.Dup = q.Dup
	}
	if q.Delay != 0 {
		out.Delay = q.Delay
	}
	if q.MaxDelay != 0 {
		out.MaxDelay = q.MaxDelay
	}
	if q.PartitionGroups != 0 {
		out.PartitionGroups = q.PartitionGroups
		out.PartitionUntil = q.PartitionUntil
	}
	out.Crashes = append(append([]Crash(nil), p.Crashes...), q.Crashes...)
	if q.CrashK != 0 || q.CrashFrac != 0 {
		out.CrashK, out.CrashFrac = q.CrashK, q.CrashFrac
		out.CrashAt, out.CrashRecover = q.CrashAt, q.CrashRecover
	}
	if q.StragglerFrac != 0 {
		out.StragglerFrac = q.StragglerFrac
		out.Slowdown = q.Slowdown
	}
	if q.FlapK != 0 || q.FlapFrac != 0 {
		out.FlapK, out.FlapFrac = q.FlapK, q.FlapFrac
		out.FlapPeriod, out.FlapDuty = q.FlapPeriod, q.FlapDuty
	}
	if q.ChurnJoin != 0 || q.ChurnLeave != 0 {
		out.ChurnJoin, out.ChurnLeave = q.ChurnJoin, q.ChurnLeave
		out.ChurnPeriod, out.ChurnSpare = q.ChurnPeriod, q.ChurnSpare
	}
	if q.DrainK != 0 || q.DrainFrac != 0 {
		out.DrainK, out.DrainFrac, out.DrainAt = q.DrainK, q.DrainFrac, q.DrainAt
	}
	out.Redistribute = p.Redistribute || q.Redistribute
	return out
}

// clamp01 forces v into [0, 1]; NaN clamps to 0.
func clamp01(v float64) float64 {
	if !(v > 0) { // catches NaN too
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Normalized returns the plan with every probability clamped to
// [0, 1] and every factor forced to a usable minimum. NewInjector
// normalizes implicitly; fuzzed plans rely on this never rejecting.
func (p Plan) Normalized() Plan {
	p.Drop = clamp01(p.Drop)
	p.Dup = clamp01(p.Dup)
	p.Delay = clamp01(p.Delay)
	p.CrashFrac = clamp01(p.CrashFrac)
	p.StragglerFrac = clamp01(p.StragglerFrac)
	if p.Delay > 0 && p.MaxDelay < 1 {
		p.MaxDelay = 1
	}
	if p.MaxDelay < 0 {
		p.MaxDelay = 0
	}
	if p.StragglerFrac > 0 && p.Slowdown < 2 {
		p.Slowdown = 2
	}
	if p.PartitionGroups < 0 {
		p.PartitionGroups = 0
	}
	if p.CrashK < 0 {
		p.CrashK = 0
	}
	p.FlapFrac = clamp01(p.FlapFrac)
	p.FlapDuty = clamp01(p.FlapDuty)
	if p.FlapK < 0 {
		p.FlapK = 0
	}
	if (p.FlapK > 0 || p.FlapFrac > 0) && p.FlapPeriod < 2 {
		p.FlapPeriod = 2
	}
	if p.ChurnJoin < 0 {
		p.ChurnJoin = 0
	}
	if p.ChurnLeave < 0 {
		p.ChurnLeave = 0
	}
	if p.ChurnSpare < 0 {
		p.ChurnSpare = 0
	}
	if (p.ChurnJoin > 0 || p.ChurnLeave > 0) && p.ChurnPeriod < 2 {
		p.ChurnPeriod = 2
	}
	p.DrainFrac = clamp01(p.DrainFrac)
	if p.DrainK < 0 {
		p.DrainK = 0
	}
	if p.DrainAt < 0 {
		p.DrainAt = 0
	}
	return p
}

// churnActive reports whether a normalized plan schedules periodic
// membership churn.
func (p Plan) churnActive() bool {
	return (p.ChurnJoin > 0 || p.ChurnLeave > 0) && p.ChurnPeriod >= 2
}

// drainActive reports whether a normalized plan schedules a one-shot
// drain batch.
func (p Plan) drainActive() bool {
	return p.DrainK > 0 || p.DrainFrac > 0
}

// MembershipActive reports whether the normalized plan injects any
// membership change (periodic churn or a drain batch) — the predicate
// the protocol layer uses to decide whether to build the membership
// tracker.
func (p Plan) MembershipActive() bool {
	p = p.Normalized()
	return p.churnActive() || p.drainActive()
}

// flapActive reports whether a normalized plan has a live flap
// schedule (some flappers, and a duty cycle that actually crashes).
func (p Plan) flapActive() bool {
	return (p.FlapK > 0 || p.FlapFrac > 0) && p.FlapDuty > 0 && p.FlapPeriod >= 2
}

// Active reports whether the plan injects any fault at all (membership
// churn counts: it runs over the hardened protocol stack — detector,
// acked transfers — like every other fault family).
func (p Plan) Active() bool {
	p = p.Normalized()
	return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 ||
		p.PartitionGroups > 1 || len(p.Crashes) > 0 ||
		p.CrashK > 0 || p.CrashFrac > 0 || p.StragglerFrac > 0 ||
		p.flapActive() || p.churnActive() || p.drainActive()
}

// Fate is the verdict for one message send.
type Fate struct {
	// Drop loses the message (fault coin, partition cut, or a crashed
	// endpoint).
	Drop bool
	// Dup delivers the message twice.
	Dup bool
	// Delay is the number of extra steps past unit latency the message
	// waits (0 = on time).
	Delay int
}

// Injector materializes a Plan for n processors: the random crashed
// and straggler sets are drawn once from the seed, and every verdict
// afterwards is a pure function of its arguments.
type Injector struct {
	plan      Plan
	n         int
	outages   [][]Crash // per-processor outage windows
	straggler []bool
	flapOff   []int64 // per-processor flap cycle offset; -1 = not flapping
	flapDown  int64   // steps down per flap cycle
}

// NewInjector builds the injector for n processors. The plan is
// normalized first; the only error is a non-positive n.
func NewInjector(n int, p Plan) (*Injector, error) {
	if n < 1 {
		return nil, fmt.Errorf("faults: need n >= 1, got %d", n)
	}
	p = p.Normalized()
	inj := &Injector{
		plan:      p,
		n:         n,
		outages:   make([][]Crash, n),
		straggler: make([]bool, n),
	}
	for _, c := range p.Crashes {
		if c.Proc >= 0 && int(c.Proc) < n {
			inj.outages[c.Proc] = append(inj.outages[c.Proc], c)
		}
	}
	k := p.CrashK
	if k == 0 && p.CrashFrac > 0 {
		k = int(p.CrashFrac * float64(n))
	}
	if k > n {
		k = n
	}
	if k > 0 {
		picks := make([]int, k)
		r := xrand.New(p.Seed ^ 0xc4a5_4ed1)
		r.SampleDistinct(picks, k, n, -1)
		for _, v := range picks {
			inj.outages[v] = append(inj.outages[v],
				Crash{Proc: int32(v), At: p.CrashAt, Recover: p.CrashRecover})
		}
	}
	if s := int(p.StragglerFrac * float64(n)); s > 0 {
		picks := make([]int, s)
		r := xrand.New(p.Seed ^ 0x57a6_61e5)
		r.SampleDistinct(picks, s, n, -1)
		for _, v := range picks {
			inj.straggler[v] = true
		}
	}
	if p.flapActive() {
		fk := p.FlapK
		if fk == 0 {
			fk = int(p.FlapFrac * float64(n))
		}
		if fk > n {
			fk = n
		}
		if fk > 0 {
			inj.flapOff = make([]int64, n)
			for i := range inj.flapOff {
				inj.flapOff[i] = -1
			}
			inj.flapDown = int64(p.FlapDuty * float64(p.FlapPeriod))
			if inj.flapDown < 1 {
				inj.flapDown = 1
			}
			picks := make([]int, fk)
			r := xrand.New(p.Seed ^ 0xf1a9_90b5)
			r.SampleDistinct(picks, fk, n, -1)
			for _, v := range picks {
				// Staggered cycle start, so flappers churn continuously
				// instead of crashing in lockstep.
				inj.flapOff[v] = int64(r.Intn(int(p.FlapPeriod)))
			}
		}
	}
	return inj, nil
}

// N returns the processor count the injector was built for.
func (inj *Injector) N() int { return inj.n }

// Plan returns the normalized plan in effect.
func (inj *Injector) Plan() Plan { return inj.plan }

// Redistribute reports the recovery-queue policy.
func (inj *Injector) Redistribute() bool { return inj.plan.Redistribute }

// Crashed reports whether processor p is down at step. Out-of-range
// ids are never crashed.
func (inj *Injector) Crashed(p int32, step int64) bool {
	if p < 0 || int(p) >= inj.n {
		return false
	}
	for _, c := range inj.outages[p] {
		if c.covers(step) {
			return true
		}
	}
	if inj.flapOff != nil && inj.flapOff[p] >= 0 && step >= 0 {
		if (step+inj.flapOff[p])%inj.plan.FlapPeriod < inj.flapDown {
			return true
		}
	}
	return false
}

// DownOracle returns a crash oracle in the shape sim.Machine.SetDown
// wants. skew translates the machine clock to the fault clock (the
// distributed protocol's delivery windows run one ahead of the machine
// step during a balancer step). This is the substrate simulating
// physics — a dead processor executes nothing — not a protocol
// decision; protocol-visible liveness comes from internal/detect.
func (inj *Injector) DownOracle(skew int64) func(p int, now int64) bool {
	return func(p int, now int64) bool { return inj.Crashed(int32(p), now+skew) }
}

// ChurnDue returns how many joins and how many drains the periodic
// churn schedule fires at step: joins at the top of every period,
// leaves half a period later (so a period matched to a diurnal
// workload scales out into the peak and in out of the trough). A pure
// function of the plan — which slots join or drain is the membership
// layer's seeded decision.
func (inj *Injector) ChurnDue(step int64) (joins, leaves int) {
	p := inj.plan
	if !p.churnActive() || step <= 0 {
		return 0, 0
	}
	if step%p.ChurnPeriod == 0 {
		joins = p.ChurnJoin
	}
	if (step+p.ChurnPeriod/2)%p.ChurnPeriod == 0 {
		leaves = p.ChurnLeave
	}
	return joins, leaves
}

// DrainDue returns how many processors the one-shot drain preset
// retires at step (the batch fires exactly once, at max(DrainAt, 1) —
// the protocol's first sweep runs at network step 1).
func (inj *Injector) DrainDue(step int64) int {
	p := inj.plan
	if !p.drainActive() {
		return 0
	}
	at := p.DrainAt
	if at < 1 {
		at = 1
	}
	if step != at {
		return 0
	}
	k := p.DrainK
	if k == 0 {
		k = int(p.DrainFrac * float64(inj.n))
	}
	if k > inj.n {
		k = inj.n
	}
	return k
}

// ChurnSpare resolves the initially-absent slot count (the join pool):
// the plan's explicit value, or n/8 when joins are scheduled with no
// explicit pool, capped so at least two processors start active.
func (inj *Injector) ChurnSpare() int {
	p := inj.plan
	spare := p.ChurnSpare
	if spare == 0 && p.churnActive() && p.ChurnJoin > 0 {
		spare = inj.n / 8
	}
	if spare > inj.n-2 {
		spare = inj.n - 2
	}
	if spare < 0 {
		spare = 0
	}
	return spare
}

// Flapper reports whether processor p is in the flapping set.
func (inj *Injector) Flapper(p int32) bool {
	return inj.flapOff != nil && p >= 0 && int(p) < inj.n && inj.flapOff[p] >= 0
}

// Straggler reports whether processor p is in the straggler set.
func (inj *Injector) Straggler(p int32) bool {
	return p >= 0 && int(p) < inj.n && inj.straggler[p]
}

// mix64 is the SplitMix64 finalizer (same mixer xrand uses), the hash
// behind every fault coin.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// coin returns a uniform [0, 1) value that is a pure function of the
// injector seed, a per-decision salt, and the message coordinates.
func (inj *Injector) coin(salt uint64, step, seq int64, from, to int32) float64 {
	h := mix64(inj.plan.Seed ^ salt)
	h = mix64(h ^ uint64(step)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(seq)*0xd1342543de82ef95)
	h = mix64(h ^ uint64(uint32(from))<<32 ^ uint64(uint32(to)))
	return float64(h>>11) / (1 << 53)
}

// Salts for the independent per-message decisions.
const (
	saltDrop  = 0xd20b
	saltDup   = 0xd0b1e
	saltDelay = 0x1a7e
	saltSpan  = 0x57e9
)

// Fate decides what happens to the seq-th message of the run, sent
// from from to to during step. It is deterministic: the same injector
// arguments always produce the same verdict. A message to or from a
// processor that is crashed at step is always dropped — faults never
// deliver into (or out of) a dead processor.
func (inj *Injector) Fate(step, seq int64, from, to int32) Fate {
	p := inj.plan
	if inj.Crashed(from, step) || inj.Crashed(to, step) {
		return Fate{Drop: true}
	}
	if p.PartitionGroups > 1 && step < p.PartitionUntil {
		if from%int32(p.PartitionGroups) != to%int32(p.PartitionGroups) {
			return Fate{Drop: true}
		}
	}
	if p.Drop > 0 && inj.coin(saltDrop, step, seq, from, to) < p.Drop {
		return Fate{Drop: true}
	}
	var f Fate
	if p.Dup > 0 && inj.coin(saltDup, step, seq, from, to) < p.Dup {
		f.Dup = true
	}
	if p.Delay > 0 && inj.coin(saltDelay, step, seq, from, to) < p.Delay {
		f.Delay = 1 + int(inj.coin(saltSpan, step, seq, from, to)*float64(p.MaxDelay))
		if f.Delay > p.MaxDelay {
			f.Delay = p.MaxDelay
		}
	}
	if inj.Straggler(from) {
		f.Delay += p.Slowdown - 1
	}
	return f
}
