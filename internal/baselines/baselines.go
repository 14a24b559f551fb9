// Package baselines implements the comparison algorithms the paper
// positions itself against (Section 1.1), all on the same machine
// substrate so the experiment harness can sweep them uniformly:
//
//   - Unbalanced: no balancing at all (Lemma 2's reference system).
//   - SingleChoice / GreedyD: balls-into-bins task allocation — every
//     generated task is placed on one random processor (classic
//     single-choice, max load Θ(log n / log log n) for m=n) or on the
//     least loaded of d random processors (Azar-Broder-Karlin-Upfal;
//     with continuous generation this is exactly Mitzenmacher's
//     supermarket model, max load O(log log n) but Ω(n) messages per
//     step).
//   - RSU: Rudolph, Slivkin-Allalouf and Upfal's pairwise equalization
//     — each step every processor contacts one random partner and they
//     equalize; expected load within a constant factor of average.
//   - LM: Lüling and Monien's trigger scheme — a processor whose load
//     doubled since its last balancing action equalizes with a
//     constant number of random partners.
//   - Lauer: average-based activation — a processor whose load deviates
//     from the (known) system average by a factor c probes random
//     partners until it finds one such that both end below the
//     activation band after equalizing.
//   - ThrowAir: the strawman from the paper's concluding remarks —
//     every log log n steps throw all load in the air and re-place
//     every task on a random processor; O(log log n)-ish load but the
//     message cost is the entire system load, and all locality is
//     destroyed.
package baselines

import (
	"fmt"

	"plb/internal/estimate"
	"plb/internal/sim"
	"plb/internal/xrand"
)

// Unbalanced is a no-op balancer, used so sweeps can treat "no
// balancing" as just another algorithm.
type Unbalanced struct{}

// Name implements sim.Balancer.
func (Unbalanced) Name() string { return "unbalanced" }

// Init implements sim.Balancer.
func (Unbalanced) Init(*sim.Machine) {}

// Step implements sim.Balancer.
func (Unbalanced) Step(*sim.Machine) {}

// GreedyD is the d-choice balls-into-bins placer: each generated task
// probes D processors chosen independently and uniformly at random and
// joins the least loaded (ties break toward the first probe). D = 1
// is the classic single-choice game; D >= 2 is ABKU's greedy process
// and, under continuous generation, the supermarket model.
//
// Communication: 2*D messages per task (probe + reply per choice),
// which is Theta(n) per step when n processors generate at constant
// rate — the cost the paper's algorithm avoids.
type GreedyD struct {
	// D is the number of random choices per task; must be >= 1.
	D int

	buf []int
}

var _ sim.Placer = (*GreedyD)(nil)

// NewGreedyD validates d and returns the placer.
func NewGreedyD(d int) (*GreedyD, error) {
	if d < 1 {
		return nil, fmt.Errorf("baselines: GreedyD needs d >= 1, got %d", d)
	}
	return &GreedyD{D: d}, nil
}

// Name implements sim.Placer.
func (g *GreedyD) Name() string { return fmt.Sprintf("greedy(d=%d)", g.D) }

// Init implements sim.Placer.
func (g *GreedyD) Init(m *sim.Machine) {
	d := g.D
	if d > m.N() {
		d = m.N()
	}
	g.buf = make([]int, d)
}

// Place implements sim.Placer.
func (g *GreedyD) Place(m *sim.Machine, _ int, r *xrand.Stream) int {
	d := len(g.buf)
	if d == 1 {
		dest := r.Intn(m.N())
		m.AddMessages(2)
		return dest
	}
	r.SampleDistinct(g.buf, d, m.N(), -1)
	m.AddMessages(int64(2 * d))
	best := g.buf[0]
	bestLoad := m.Load(best)
	for _, p := range g.buf[1:] {
		if l := m.Load(p); l < bestLoad {
			best, bestLoad = p, l
		}
	}
	return best
}

// RSU is Rudolph-Slivkin-Allalouf-Upfal pairwise equalization: each
// step, every processor contacts one uniformly random partner and the
// pair equalizes (the higher-loaded side sends half the difference).
// Probes are issued for every processor every step, so the message
// cost is Theta(n) per step regardless of imbalance.
type RSU struct {
	// MinDiff is the load difference below which a pair does not
	// bother moving tasks (1 = always equalize when unequal).
	MinDiff int
	// Seed derives the strategy's randomness.
	Seed uint64

	rng *xrand.Stream
}

var _ sim.Balancer = (*RSU)(nil)

// Name implements sim.Balancer.
func (b *RSU) Name() string { return fmt.Sprintf("rsu91(mindiff=%d)", b.MinDiff) }

// Init implements sim.Balancer.
func (b *RSU) Init(*sim.Machine) {
	if b.MinDiff < 1 {
		b.MinDiff = 2
	}
	b.rng = xrand.New(b.Seed ^ 0x51ab)
}

// Step implements sim.Balancer.
func (b *RSU) Step(m *sim.Machine) {
	n := m.N()
	for p := 0; p < n; p++ {
		q := b.rng.Intn(n)
		m.AddMessages(2) // probe + load reply
		if q == p {
			continue
		}
		lp, lq := m.Load(p), m.Load(q)
		switch {
		case lp-lq >= b.MinDiff:
			m.Transfer(p, q, (lp-lq)/2)
		case lq-lp >= b.MinDiff:
			m.Transfer(q, p, (lq-lp)/2)
		}
	}
}

// LM is Lüling and Monien's scheme: a processor whose load has at
// least doubled since its last balancing action (and exceeds a small
// floor) picks K random partners and the group equalizes to its mean.
type LM struct {
	// K is the number of random partners contacted per balancing
	// action.
	K int
	// Floor is the minimum load before the doubling trigger can fire.
	Floor int
	// Seed derives the strategy's randomness.
	Seed uint64

	rng  *xrand.Stream
	last []int // load at last balancing action
	buf  []int
}

var _ sim.Balancer = (*LM)(nil)

// Name implements sim.Balancer.
func (b *LM) Name() string { return fmt.Sprintf("lm93(k=%d)", b.K) }

// Init implements sim.Balancer.
func (b *LM) Init(m *sim.Machine) {
	if b.K < 1 {
		b.K = 2
	}
	if b.Floor < 1 {
		b.Floor = 4
	}
	b.rng = xrand.New(b.Seed ^ 0x1193)
	b.last = make([]int, m.N())
	for i := range b.last {
		b.last[i] = b.Floor
	}
	b.buf = make([]int, b.K)
}

// Step implements sim.Balancer.
func (b *LM) Step(m *sim.Machine) {
	n := m.N()
	for p := 0; p < n; p++ {
		lp := m.Load(p)
		if lp < b.Floor || lp < 2*b.last[p] {
			continue
		}
		k := b.K
		if k > n-1 {
			k = n - 1
		}
		b.rng.SampleDistinct(b.buf[:k], k, n, p)
		m.AddMessages(int64(2 * k))
		// Equalize the group to its mean: the initiating processor
		// sends each lower-loaded partner enough to lift it to the
		// mean (only the initiator sheds load; partners above the mean
		// are left alone, as in the push-based variant).
		sum := lp
		for _, q := range b.buf[:k] {
			sum += m.Load(q)
		}
		mean := sum / (k + 1)
		for _, q := range b.buf[:k] {
			lq := m.Load(q)
			if lq < mean {
				give := mean - lq
				if avail := m.Load(p) - mean; give > avail {
					give = avail
				}
				if give > 0 {
					m.Transfer(p, q, give)
				}
			}
		}
		b.last[p] = m.Load(p)
		if b.last[p] < b.Floor {
			b.last[p] = b.Floor
		}
	}
}

// Lauer is the average-based algorithm from Lauer's thesis: with the
// system average av known, a processor is active when its load leaves
// the band [av/C, av*C]. Each step, every active processor probes one
// random partner and equalizes with an "applicative" one. Lauer's
// applicativeness ("both inactive after equalizing") deadlocks on
// deviations larger than the band can absorb in one hop — his analysis
// only covers load O(av) — so this implementation relaxes it
// directionally: an overloaded processor may equalize whenever the
// partner does not end above the band, and an underloaded one whenever
// the partner does not end below it. Extreme outliers then drain in
// logarithmically many halvings instead of never.
type Lauer struct {
	// C is the activation factor (> 1).
	C float64
	// EstimateK, when positive, replaces the oracle average with a
	// sampled estimate refreshed every EstimateEvery steps by polling
	// EstimateK random processors (Lauer's thesis extension; see
	// internal/estimate). Zero keeps the known-average assumption.
	EstimateK int
	// EstimateEvery is the refresh period of the sampled average
	// (default 16 when EstimateK > 0).
	EstimateEvery int
	// Seed derives the strategy's randomness.
	Seed uint64

	rng     *xrand.Stream
	estAvg  float64
	sampler estimate.Sampler
}

var _ sim.Balancer = (*Lauer)(nil)

// Name implements sim.Balancer.
func (b *Lauer) Name() string {
	if b.EstimateK > 0 {
		return fmt.Sprintf("lauer95(c=%.1f,est=%d)", b.C, b.EstimateK)
	}
	return fmt.Sprintf("lauer95(c=%.1f)", b.C)
}

// Init implements sim.Balancer.
func (b *Lauer) Init(*sim.Machine) {
	if b.C <= 1 {
		b.C = 2
	}
	if b.EstimateK > 0 && b.EstimateEvery < 1 {
		b.EstimateEvery = 16
	}
	b.sampler = estimate.Sampler{K: b.EstimateK}
	b.rng = xrand.New(b.Seed ^ 0x1a0e)
}

// Step implements sim.Balancer.
func (b *Lauer) Step(m *sim.Machine) {
	n := m.N()
	var av float64
	if b.EstimateK > 0 {
		if m.Now()%int64(b.EstimateEvery) == 0 {
			est, msgs := b.sampler.Estimate(m.Snapshot(), b.rng)
			b.estAvg = est
			m.AddMessages(msgs)
		}
		av = b.estAvg
	} else {
		av = float64(m.TotalLoad()) / float64(n)
	}
	if av < 1 {
		av = 1
	}
	hi := av * b.C
	lo := av / b.C
	for p := 0; p < n; p++ {
		lp := float64(m.Load(p))
		if lp >= lo && lp <= hi {
			continue
		}
		q := b.rng.Intn(n)
		m.AddMessages(2)
		if q == p {
			continue
		}
		lq := float64(m.Load(q))
		after := (lp + lq) / 2
		// Directional applicativeness (see type comment).
		if lp > hi && after > hi && lq+1 >= lp {
			continue // partner would end overloaded and no progress
		}
		if lp < lo && after < lo && lq <= lp+1 {
			continue // partner would end underloaded and no progress
		}
		diff := (m.Load(p) - m.Load(q)) / 2
		if diff > 0 {
			m.Transfer(p, q, diff)
		} else if diff < 0 {
			m.Transfer(q, p, -diff)
		}
	}
}

// ThrowAir is the strawman from the paper's concluding remarks: at the
// beginning of each interval of Interval steps, all load is thrown
// into the air and every task lands on a uniformly random processor.
// The max load after a throw matches a balls-into-bins experiment, but
// every interval costs one message per queued task and scatters
// co-located tasks across the machine.
type ThrowAir struct {
	// Interval is the redistribution period (the paper suggests
	// log log n).
	Interval int
	// Seed derives the strategy's randomness.
	Seed uint64

	rng *xrand.Stream
}

var _ sim.Balancer = (*ThrowAir)(nil)

// Name implements sim.Balancer.
func (b *ThrowAir) Name() string { return fmt.Sprintf("throwair(every=%d)", b.Interval) }

// Init implements sim.Balancer.
func (b *ThrowAir) Init(*sim.Machine) {
	if b.Interval < 1 {
		b.Interval = 4
	}
	b.rng = xrand.New(b.Seed ^ 0x7a1e)
}

// Step implements sim.Balancer.
func (b *ThrowAir) Step(m *sim.Machine) {
	if m.Now()%int64(b.Interval) != 0 {
		return
	}
	moved := m.Scatter(b.rng)
	m.AddMessages(moved) // one message per thrown task
}
