package baselines

import (
	"fmt"

	"plb/internal/sim"
	"plb/internal/xrand"
)

// LocalSearch is the randomized-local-search policy from the "Tight
// Load Balancing via Randomized Local Search" line of work: each step
// every processor probes one uniformly random partner and moves a
// single task from the heavier to the lighter side when the gap is at
// least MinGap. The per-step move is minimal (one task, two messages
// per probe), so convergence is slow but the policy needs no load
// averages, no triggers and no coordination — the cheapest member of
// the competitor family.
type LocalSearch struct {
	// MinGap is the load difference required before a task moves
	// (default 2: never overshoot past equality).
	MinGap int
	// Seed derives the strategy's randomness.
	Seed uint64

	rng *xrand.Stream
}

var _ sim.Balancer = (*LocalSearch)(nil)

// Name implements sim.Balancer.
func (b *LocalSearch) Name() string { return fmt.Sprintf("localsearch(gap=%d)", b.MinGap) }

// Init implements sim.Balancer.
func (b *LocalSearch) Init(*sim.Machine) {
	if b.MinGap < 1 {
		b.MinGap = 2
	}
	b.rng = xrand.New(b.Seed ^ 0x10c5)
}

// Step implements sim.Balancer.
func (b *LocalSearch) Step(m *sim.Machine) {
	n := m.N()
	for p := 0; p < n; p++ {
		q := b.rng.Intn(n)
		m.AddMessages(2) // probe + load reply
		if q == p {
			continue
		}
		lp, lq := m.Load(p), m.Load(q)
		switch {
		case lp-lq >= b.MinGap:
			m.Transfer(p, q, 1)
		case lq-lp >= b.MinGap:
			m.Transfer(q, p, 1)
		}
	}
}
