package core

import (
	"fmt"

	"plb/internal/sim"
	"plb/internal/xrand"
)

// Phaseless is the variant sketched in the paper's concluding remarks:
// "the dividing of time in phases is just an analytical instrument and
// is by no means essentially necessary for the algorithm itself (but,
// of course, the collision protocol would have to be modified)".
//
// Every step, each processor whose load has reached the heavy
// threshold — and whose cooldown has expired — initiates a balancing
// action immediately: it probes Probes processors chosen i.u.a.r.; a
// probed processor that is light, not yet reserved this step, and hit
// by at most Collide probes accepts (the per-step analogue of the
// collision rule), and the initiator transfers TransferAmount tasks to
// the first acceptor. Initiators back off for Cooldown steps after an
// attempt so an unlucky processor does not probe every step.
type Phaseless struct {
	// HeavyThreshold triggers a balancing action.
	HeavyThreshold int
	// LightThreshold (inclusive) makes a processor an eligible
	// partner.
	LightThreshold int
	// TransferAmount is the block moved per action.
	TransferAmount int
	// Probes is the number of random processors probed per action
	// (the collision protocol's a).
	Probes int
	// Collide is the per-step probe cap on a target (the collision
	// value c): a processor hit by more probes answers none.
	Collide int
	// Cooldown is the number of steps an initiator waits after an
	// attempt before trying again.
	Cooldown int
	// Seed derives the balancer's randomness.
	Seed uint64

	n        int
	rng      *xrand.Stream
	nextTry  []int64
	probeCnt []int32 // probes received this step
	reserved []bool  // already promised a block this step
	touched  []int32

	// Reused per-step scratch: the initiator list and the probe rows
	// (one flat buffer), so steady-state steps allocate nothing.
	inits    []int32
	probes   []int32 // flat len(inits) x Probes rows
	probeBuf []int
}

var _ sim.Balancer = (*Phaseless)(nil)

// NewPhaseless derives the variant's thresholds from the paper's
// defaults for n (heavy T/2, light T/16, transfer T/4, a=5 probes,
// c=1, cooldown T/16).
func NewPhaseless(n int, seed uint64) (*Phaseless, error) {
	cfg := DefaultConfig(n)
	p := &Phaseless{
		HeavyThreshold: cfg.HeavyThreshold,
		LightThreshold: cfg.LightThreshold,
		TransferAmount: cfg.TransferAmount,
		Probes:         cfg.Collision.A,
		Collide:        cfg.Collision.C,
		Cooldown:       cfg.PhaseLen,
		Seed:           seed,
	}
	if err := p.validate(n); err != nil {
		return nil, err
	}
	return p, nil
}

func (b *Phaseless) validate(n int) error {
	if b.HeavyThreshold <= b.LightThreshold {
		return fmt.Errorf("core: phaseless heavy %d must exceed light %d", b.HeavyThreshold, b.LightThreshold)
	}
	if b.TransferAmount < 1 || b.TransferAmount > b.HeavyThreshold {
		return fmt.Errorf("core: phaseless transfer %d out of [1, heavy=%d]", b.TransferAmount, b.HeavyThreshold)
	}
	if b.Probes < 1 || b.Probes > n-1 {
		return fmt.Errorf("core: phaseless probes %d out of [1, n-1]", b.Probes)
	}
	if b.Collide < 1 {
		return fmt.Errorf("core: phaseless collide %d must be >= 1", b.Collide)
	}
	if b.Cooldown < 0 {
		return fmt.Errorf("core: phaseless cooldown %d negative", b.Cooldown)
	}
	return nil
}

// Name implements sim.Balancer.
func (b *Phaseless) Name() string {
	return fmt.Sprintf("bfm98-phaseless(heavy=%d,cool=%d)", b.HeavyThreshold, b.Cooldown)
}

// Init implements sim.Balancer.
func (b *Phaseless) Init(m *sim.Machine) {
	b.n = m.N()
	b.rng = xrand.New(b.Seed ^ 0x9a5e)
	b.nextTry = make([]int64, b.n)
	b.probeCnt = make([]int32, b.n)
	b.reserved = make([]bool, b.n)
	b.touched = b.touched[:0]
	b.probeBuf = make([]int, b.Probes)
	m.ConfigureHeavyIndex(b.HeavyThreshold, false)
}

// Step implements sim.Balancer.
func (b *Phaseless) Step(m *sim.Machine) {
	now := m.Now()
	// The machine's heavy set is exactly the load >= threshold set in
	// ascending id order. Copied because the transfers below mutate it.
	initiators := b.inits[:0]
	for _, p := range m.HeavyIDs() {
		if now < b.nextTry[p] {
			continue
		}
		initiators = append(initiators, p)
	}
	b.inits = initiators
	if len(initiators) == 0 {
		return
	}
	// Deliver all probes, then resolve with the per-step collision
	// rule — deterministic because initiators are processed in id
	// order both times. Probe rows live in one flat reused buffer.
	a := b.Probes
	if need := len(initiators) * a; cap(b.probes) < need {
		b.probes = make([]int32, need)
	}
	probes := b.probes[:len(initiators)*a]
	buf := b.probeBuf
	for i, src := range initiators {
		b.rng.SampleDistinct(buf, a, b.n, int(src))
		row := probes[i*a : (i+1)*a]
		for j, v := range buf {
			row[j] = int32(v)
			if b.probeCnt[v] == 0 {
				b.touched = append(b.touched, int32(v))
			}
			b.probeCnt[v]++
		}
		m.AddMessages(int64(a))
		b.nextTry[src] = now + int64(b.Cooldown) + 1
	}
	for i, src := range initiators {
		for _, tgt := range probes[i*a : (i+1)*a] {
			if b.probeCnt[tgt] > int32(b.Collide) {
				continue // collision: the target answers nobody
			}
			if b.reserved[tgt] || m.Load(int(tgt)) > b.LightThreshold {
				continue
			}
			b.reserved[tgt] = true
			m.AddMessages(1) // accept reply
			m.Transfer(int(src), int(tgt), b.TransferAmount)
			break
		}
	}
	for _, tgt := range b.touched {
		b.probeCnt[tgt] = 0
		b.reserved[tgt] = false
	}
	b.touched = b.touched[:0]
}
