// Package gen implements the paper's load generation and consumption
// models.
//
// Section 1.2 of the paper defines four models, all with expected
// system load O(n):
//
//   - Single: each step a processor generates one task with probability
//     p and consumes one with probability q = p + eps (eps > 0 so a
//     steady state exists; task service times are geometric).
//   - Geometric: each step a processor generates i tasks (1 <= i <= k)
//     with probability 2^-(i+1) and deterministically consumes one task
//     if present (unit service time).
//   - Multi: each step a processor generates i tasks (0 <= i < c) with
//     probability p(i), expected generation < 1 per step, and
//     deterministically consumes one task if present.
//   - Adversarial: over a window of T = (log log n)^2 steps each
//     processor may change its own load by O(T) in either direction,
//     subject to an upper bound on the total system load. This captures
//     tree-like computations where running tasks spawn children.
//
// A Model answers, for one processor and one step, how many tasks are
// generated and how many the processor wants to consume. All
// randomness flows through the caller-provided stream so simulations
// stay reproducible and shard-parallelizable.
package gen

import (
	"fmt"

	"plb/internal/xrand"
)

// Model describes per-processor, per-step load generation and
// consumption. Implementations must be safe for concurrent calls with
// distinct proc arguments (the simulator shards processors over
// goroutines); any global coordination must happen in BeginStep, which
// the simulator calls sequentially between steps on models that
// implement StepAware (and which then also bounds which processors the
// simulator visits).
type Model interface {
	// Name identifies the model in experiment tables.
	Name() string
	// Generate returns how many tasks processor proc creates at step
	// now.
	Generate(proc int, r *xrand.Stream, now int64) int
	// WantConsume returns how many tasks processor proc would consume
	// at step now if its queue held at least that many; the simulator
	// consumes min(WantConsume, load).
	WantConsume(proc int, r *xrand.Stream, now int64) int
}

// StepAware is implemented by models that plan generation centrally
// before each step (the adversarial model). The simulator calls
// BeginStep sequentially before the step's generation and consumption;
// loads is read-only and indexed by processor.
//
// The planning contract: BeginStep returns, in ascending order and
// without repeats, every processor whose Generate may return non-zero
// at step now; Generate returns that plan, and neither Generate nor
// WantConsume draws from the processor's stream. A processor with an
// empty queue and no planned generation therefore changes nothing in
// the step, and the dense simulator skips it. The returned slice is
// owned by the model and valid until the next BeginStep.
type StepAware interface {
	BeginStep(now int64, loads []int32) []int32
}

// Bounded is implemented by models whose per-step generation has a
// hard upper bound. The sparse event-driven simulator (sim.Config.
// Sparse) relies on it: a processor whose load is d below the heavy
// threshold cannot become heavy for at least ceil(d/MaxGenPerStep)
// steps, so its catch-up can be deferred that long. Models without a
// bound (adversaries) cannot run sparse.
type Bounded interface {
	// MaxGenPerStep returns the largest number of tasks Generate can
	// return in one step (0 means the model never generates).
	MaxGenPerStep() int
}

// Single is the paper's primary model: Bernoulli(P) generation and
// Bernoulli(P+Eps) consumption.
type Single struct {
	// P is the per-step generation probability.
	P float64
	// Eps is the consumption surplus; consumption probability is
	// P + Eps. Must be positive for a steady state to exist.
	Eps float64
}

// NewSingle returns a Single model, validating 0 < p and p+eps <= 1
// and eps > 0.
func NewSingle(p, eps float64) (Single, error) {
	if p <= 0 || eps <= 0 || p+eps > 1 {
		return Single{}, fmt.Errorf("gen: invalid Single(p=%v, eps=%v): need 0<p, 0<eps, p+eps<=1", p, eps)
	}
	return Single{P: p, Eps: eps}, nil
}

// Name implements Model.
func (s Single) Name() string { return fmt.Sprintf("single(p=%g,eps=%g)", s.P, s.Eps) }

// Generate implements Model.
func (s Single) Generate(_ int, r *xrand.Stream, _ int64) int {
	if r.Bernoulli(s.P) {
		return 1
	}
	return 0
}

// WantConsume implements Model.
func (s Single) WantConsume(_ int, r *xrand.Stream, _ int64) int {
	if r.Bernoulli(s.P + s.Eps) {
		return 1
	}
	return 0
}

// MaxGenPerStep implements Bounded: at most one task per step.
func (s Single) MaxGenPerStep() int { return 1 }

// SteadyStateGainLoss returns the per-step probabilities of gaining
// and losing one task for a non-empty unbalanced processor, matching
// the birth-death chain in the proof of Lemma 2:
// p_g = p(1-(p+eps)), p_l = (p+eps)(1-p).
func (s Single) SteadyStateGainLoss() (pg, pl float64) {
	q := s.P + s.Eps
	return s.P * (1 - q), q * (1 - s.P)
}

// Diurnal is a time-varying Single: generation alternates between a
// high rate (the first half of every period) and a low rate (the
// second half), while consumption stays pegged to the peak rate plus
// Eps so the system drains through the trough. It models the demand
// cycle an autoscaler provisions against (experiment E25): a fleet
// sized for the trough saturates at the peak, a fleet sized for the
// peak idles through the trough, and elastic membership chases the
// rate. The rate in force is a pure function of the step, so runs
// stay reproducible and shard-parallelizable.
type Diurnal struct {
	// PHigh and PLow are the peak and trough per-step generation
	// probabilities.
	PHigh, PLow float64
	// Eps is the consumption surplus over the peak rate; consumption
	// probability is PHigh + Eps at every step.
	Eps float64
	// Period is the full cycle length in steps (peak + trough).
	Period int64
}

// NewDiurnal validates and returns a Diurnal model.
func NewDiurnal(pHigh, pLow, eps float64, period int64) (Diurnal, error) {
	if pLow <= 0 || pHigh < pLow || eps <= 0 || pHigh+eps > 1 {
		return Diurnal{}, fmt.Errorf("gen: invalid Diurnal(hi=%v, lo=%v, eps=%v): need 0<lo<=hi, 0<eps, hi+eps<=1",
			pHigh, pLow, eps)
	}
	if period < 2 {
		return Diurnal{}, fmt.Errorf("gen: invalid Diurnal period %d: need >= 2", period)
	}
	return Diurnal{PHigh: pHigh, PLow: pLow, Eps: eps, Period: period}, nil
}

// Name implements Model.
func (d Diurnal) Name() string {
	return fmt.Sprintf("diurnal(hi=%g,lo=%g,eps=%g,period=%d)", d.PHigh, d.PLow, d.Eps, d.Period)
}

// Rate returns the generation probability in force at step now.
func (d Diurnal) Rate(now int64) float64 {
	if now%d.Period < d.Period/2 {
		return d.PHigh
	}
	return d.PLow
}

// Generate implements Model.
func (d Diurnal) Generate(_ int, r *xrand.Stream, now int64) int {
	if r.Bernoulli(d.Rate(now)) {
		return 1
	}
	return 0
}

// WantConsume implements Model.
func (d Diurnal) WantConsume(_ int, r *xrand.Stream, _ int64) int {
	if r.Bernoulli(d.PHigh + d.Eps) {
		return 1
	}
	return 0
}

// MaxGenPerStep implements Bounded: at most one task per step.
func (d Diurnal) MaxGenPerStep() int { return 1 }

// Geometric is the paper's second model: at most K tasks per step,
// P(i tasks) = 2^-(i+1) for i in 1..K, deterministic unit consumption.
type Geometric struct {
	// K is the maximum number of tasks generated per step; must be a
	// positive constant.
	K int
}

// NewGeometric validates and returns a Geometric model.
func NewGeometric(k int) (Geometric, error) {
	if k < 1 || k > 62 {
		return Geometric{}, fmt.Errorf("gen: invalid Geometric(k=%d): need 1<=k<=62", k)
	}
	return Geometric{K: k}, nil
}

// Name implements Model.
func (g Geometric) Name() string { return fmt.Sprintf("geometric(k=%d)", g.K) }

// Generate implements Model.
func (g Geometric) Generate(_ int, r *xrand.Stream, _ int64) int {
	u := r.Float64()
	// P(i) = 2^-(i+1) for i = 1..K; remaining mass (> 1/2) is zero
	// tasks. Cumulative from i=1: 1/4, 1/4+1/8, ...
	cum := 0.0
	for i := 1; i <= g.K; i++ {
		cum += 1 / float64(int64(1)<<uint(i+1))
		if u < cum {
			return i
		}
	}
	return 0
}

// WantConsume implements Model: deterministic single-task consumption.
func (g Geometric) WantConsume(_ int, _ *xrand.Stream, _ int64) int { return 1 }

// MaxGenPerStep implements Bounded: at most K tasks per step.
func (g Geometric) MaxGenPerStep() int { return g.K }

// ExpectedPerStep returns the expected number of tasks generated per
// step: sum_{i=1..K} i * 2^-(i+1).
func (g Geometric) ExpectedPerStep() float64 {
	e := 0.0
	for i := 1; i <= g.K; i++ {
		e += float64(i) / float64(int64(1)<<uint(i+1))
	}
	return e
}

// Multi is the paper's third model: an arbitrary bounded generation
// distribution with expectation below one and deterministic unit
// consumption.
type Multi struct {
	// Probs[i] is the probability of generating i tasks in a step
	// (i starts at 0). Must sum to <= 1; remaining mass generates 0.
	Probs []float64
	name  string
}

// NewMulti validates probs: entries non-negative, sum <= 1, expected
// generation strictly below 1 (the paper's stability condition).
func NewMulti(probs []float64) (*Multi, error) {
	sum, mean := 0.0, 0.0
	for i, p := range probs {
		if p < 0 {
			return nil, fmt.Errorf("gen: Multi probs[%d] = %v negative", i, p)
		}
		sum += p
		mean += float64(i) * p
	}
	if sum > 1+1e-12 {
		return nil, fmt.Errorf("gen: Multi probs sum %v > 1", sum)
	}
	if mean >= 1 {
		return nil, fmt.Errorf("gen: Multi expected generation %v >= 1 (unstable)", mean)
	}
	return &Multi{Probs: probs, name: fmt.Sprintf("multi(c=%d,mean=%.3f)", len(probs), mean)}, nil
}

// Name implements Model.
func (m *Multi) Name() string { return m.name }

// Generate implements Model.
func (m *Multi) Generate(_ int, r *xrand.Stream, _ int64) int {
	u := r.Float64()
	cum := 0.0
	for i, p := range m.Probs {
		cum += p
		if u < cum {
			return i
		}
	}
	return 0
}

// WantConsume implements Model.
func (m *Multi) WantConsume(_ int, _ *xrand.Stream, _ int64) int { return 1 }

// ExpectedPerStep returns the expected tasks generated per step.
func (m *Multi) ExpectedPerStep() float64 {
	e := 0.0
	for i, p := range m.Probs {
		e += float64(i) * p
	}
	return e
}

// MaxPerStep returns the largest possible generation in one step.
func (m *Multi) MaxPerStep() int {
	max := 0
	for i, p := range m.Probs {
		if p > 0 {
			max = i
		}
	}
	return max
}

// MaxGenPerStep implements Bounded.
func (m *Multi) MaxGenPerStep() int { return m.MaxPerStep() }
