package core

import (
	"fmt"
	"slices"

	"plb/internal/collision"
	"plb/internal/engine"
	"plb/internal/sim"
	"plb/internal/xrand"
)

// Balancer is the paper's phase-based threshold balancing algorithm.
// It implements sim.Balancer. Construct with New.
//
// A phase costs O(participants), not O(n), and allocates nothing in
// steady state: the machine hands over the heavy set in ascending id
// order (HeavyIDs), per-processor phase state resets lazily on first
// use (touch), the collision games run on a reused collision.Scratch,
// and every per-phase buffer lives in a reusable arena. See
// docs/PERFORMANCE.md for the determinism argument.
type Balancer struct {
	cfg Config
	n   int
	rng *xrand.Stream

	// Per-phase scratch, reused across phases. An entry is valid in
	// the current phase only once touch has stamped it with curEpoch.
	flags    []uint8 // flag* bits
	boss     []int32 // tree root of each participating processor
	partner  []int32 // boss -> chosen light partner (-1 none)
	epoch    []uint32
	curEpoch uint32

	// Phase arena: heavy, searcher and settle buffers plus the
	// collision kernel's scratch, all reused so steady-state phases
	// allocate nothing.
	heavies     []int32 // the phase's heavy set, ascending ids
	searchA     []int32 // searcher ping-pong buffers
	searchB     []int32
	newPartners []int32 // roots partnered this round, settle queue
	col         collision.Scratch

	// Pre-round (Section 4.3) scratch.
	preTargets []int32
	preHits    []int32 // probes received per processor
	preTouched []int32 // preHits entries to reset

	// Pending streamed transfers (StreamTransfers mode): each entry
	// moves perStep tasks from src to dst every step until drained.
	streams []streamXfer

	// Aggregated statistics.
	totalPhases   int64
	totalHeavy    int64
	totalMatched  int64
	totalRequests int64
	sumRounds     int64
}

var _ sim.Balancer = (*Balancer)(nil)

// Per-processor phase flags, one byte per processor.
const (
	flagLight    uint8 = 1 << iota // light at phase start
	flagAssigned                   // reserved as balancing partner this phase
	flagInTree                     // currently an active searcher
	flagMatched                    // boss -> already matched this phase
)

// New constructs the balancer for a machine of n processors. Zero
// config fields are filled with the paper's defaults for n.
func New(n int, cfg Config) (*Balancer, error) {
	cfg = cfg.withDefaults(n)
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	return &Balancer{cfg: cfg, n: n}, nil
}

// Name implements sim.Balancer.
func (b *Balancer) Name() string {
	return fmt.Sprintf("bfm98(T=%d,phase=%d)", b.cfg.T, b.cfg.PhaseLen)
}

// Config returns the fully-defaulted configuration in use.
func (b *Balancer) Config() Config { return b.cfg }

// ExtendMetrics implements sim.MetricsExtender, contributing the
// phase-based balancer's extension counters (completed phases,
// classified-heavy processors, matches, collision requests and rounds)
// to the unified engine metrics.
func (b *Balancer) ExtendMetrics(m *engine.Metrics) {
	m.AddExtra("phases", b.totalPhases)
	m.AddExtra("heavy", b.totalHeavy)
	m.AddExtra("matched", b.totalMatched)
	m.AddExtra("requests", b.totalRequests)
	m.AddExtra("collision_rounds", b.sumRounds)
}

// Init implements sim.Balancer.
func (b *Balancer) Init(m *sim.Machine) {
	if m.N() != b.n {
		panic(fmt.Sprintf("core: balancer built for n=%d installed on n=%d", b.n, m.N()))
	}
	b.rng = xrand.New(b.cfg.Seed ^ 0xb5c0_ffee)
	b.flags = make([]uint8, b.n)
	b.boss = make([]int32, b.n)
	b.partner = make([]int32, b.n)
	b.epoch = make([]uint32, b.n)
	b.curEpoch = 0
	b.heavies = b.heavies[:0]
	b.newPartners = b.newPartners[:0]
	if b.cfg.PreRound {
		b.preHits = make([]int32, b.n)
	}
	b.streams = nil
	if b.cfg.ByWeight && m.SparseActive() {
		panic("core: ByWeight balancing cannot run on a sparse machine (weighted service needs task identity)")
	}
	m.ConfigureHeavyIndex(b.cfg.HeavyThreshold, b.cfg.ByWeight)
}

// streamXfer is one in-flight streamed block transfer.
type streamXfer struct {
	src, dst  int32
	remaining int
	perStep   int
}

// Step implements sim.Balancer: a new phase begins whenever the clock
// hits a multiple of the phase length. Classification uses the
// phase-start snapshot; decisions execute immediately and transfers
// either move atomically (default) or stream over the following phase
// (StreamTransfers, the Section 5 remark).
func (b *Balancer) Step(m *sim.Machine) {
	b.pumpStreams(m)
	if m.Now()%int64(b.cfg.PhaseLen) != 0 {
		return
	}
	b.runPhase(m)
}

// pumpStreams advances every in-flight streamed transfer by one step.
func (b *Balancer) pumpStreams(m *sim.Machine) {
	if len(b.streams) == 0 {
		return
	}
	alive := b.streams[:0]
	for _, s := range b.streams {
		k := s.perStep
		if k > s.remaining {
			k = s.remaining
		}
		moved := m.Transfer(int(s.src), int(s.dst), k)
		s.remaining -= k
		if moved < k {
			// Source drained by its own consumption: drop the rest.
			s.remaining = 0
		}
		if s.remaining > 0 {
			alive = append(alive, s)
		}
	}
	b.streams = alive
}

// transferBlock either moves the block atomically or schedules it for
// streaming over the next phase. It returns the number of tasks that
// will move (for stats, the full block is reported when streaming —
// the remark's point is that the same load arrives by the next phase
// start).
func (b *Balancer) transferBlock(m *sim.Machine, src, dst int32) int {
	if b.cfg.ByWeight {
		tasks, _ := m.TransferWeight(int(src), int(dst), int64(b.cfg.TransferAmount))
		return tasks
	}
	if !b.cfg.StreamTransfers {
		return m.Transfer(int(src), int(dst), b.cfg.TransferAmount)
	}
	perStep := (b.cfg.TransferAmount + b.cfg.PhaseLen - 1) / b.cfg.PhaseLen
	b.streams = append(b.streams, streamXfer{
		src: src, dst: dst,
		remaining: b.cfg.TransferAmount,
		perStep:   perStep,
	})
	return b.cfg.TransferAmount
}

// Totals returns aggregate statistics over all phases run so far:
// phases, heavy-processor observations, matches, and total requests.
func (b *Balancer) Totals() (phases, heavy, matched, requests int64) {
	return b.totalPhases, b.totalHeavy, b.totalMatched, b.totalRequests
}

// runPhase runs one phase: classification (Section 3) by task count,
// or by remaining service weight under ByWeight, then the pre-round and
// the tree growth. The machine's heavy set is the phase's roots, and
// light classification happens lazily in touch. The light count is
// taken only for an OnPhase observer, the one reader of PhaseStats.
func (b *Balancer) runPhase(m *sim.Machine) {
	cfg := &b.cfg
	ps := PhaseStats{Start: m.Now()}
	b.curEpoch++
	if b.curEpoch == 0 { // uint32 wrap: restore the all-stale invariant
		clear(b.epoch)
		b.curEpoch = 1
	}
	heavies := append(b.heavies[:0], m.HeavyIDs()...)
	b.heavies = heavies
	ps.Heavy = len(heavies)
	if cfg.OnPhase != nil {
		ps.Light = b.countLight(m)
	}
	for _, h := range heavies {
		b.touch(m, h)
	}

	if len(heavies) > 0 {
		searchers := append(b.searchA[:0], heavies...)
		b.searchA = searchers
		if cfg.PreRound {
			searchers = b.preRound(m, searchers, &ps)
		}
		for _, s := range searchers {
			b.boss[s] = s
			b.flags[s] |= flagInTree
		}
		b.growTrees(m, searchers, &ps)
	}

	m.AddMessages(ps.Messages)

	b.totalPhases++
	b.totalHeavy += int64(ps.Heavy)
	b.totalMatched += int64(ps.Matched)
	b.totalRequests += ps.Requests
	b.sumRounds += int64(ps.Rounds)
	if cfg.OnPhase != nil {
		cfg.OnPhase(ps)
	}
}

// countLight counts the processors light at phase start.
func (b *Balancer) countLight(m *sim.Machine) int {
	light := 0
	if b.cfg.ByWeight {
		for _, w := range m.SnapshotWeights() {
			if w <= int64(b.cfg.LightThreshold) {
				light++
			}
		}
		return light
	}
	for _, l := range m.Snapshot() {
		if int(l) <= b.cfg.LightThreshold {
			light++
		}
	}
	return light
}

// touch lazily initializes processor p's per-phase state on its first
// appearance in the current phase: light classification from the live
// load (or weight) plus the usual flag resets. A no-op on an entry
// already touched this phase.
//
// Reading the live load here is equivalent to a phase-start snapshot:
// a processor's load only changes mid-phase by receiving or sending a
// transfer, and every transfer endpoint is touched before its first
// transfer (roots at phase start, partners before they are assigned) —
// so the load touch sees is always the phase-start value.
func (b *Balancer) touch(m *sim.Machine, p int32) {
	if b.epoch[p] == b.curEpoch {
		return
	}
	b.epoch[p] = b.curEpoch
	l := int64(m.Load(int(p)))
	if b.cfg.ByWeight {
		l = m.WeightedLoad(int(p))
	}
	b.flags[p] = 0
	if l <= int64(b.cfg.LightThreshold) {
		b.flags[p] = flagLight
	}
	b.partner[p] = -1
}

// preRound is the Section 4.3 modification for the adversarial model:
// every heavy processor probes one random processor; a light,
// unreserved processor hit by exactly one probe balances immediately.
// It filters the heavy list in place and returns the processors that
// remain unmatched.
func (b *Balancer) preRound(m *sim.Machine, heavies []int32, ps *PhaseStats) []int32 {
	targets := b.preTargets[:0]
	touched := b.preTouched[:0]
	for range heavies {
		t := int32(b.rng.Intn(b.n))
		targets = append(targets, t)
		if b.preHits[t] == 0 {
			touched = append(touched, t)
		}
		b.preHits[t]++
	}
	b.preTargets = targets
	ps.Messages += int64(len(heavies)) // one probe per heavy processor
	remaining := heavies[:0]
	for i, h := range heavies {
		t := targets[i]
		b.touch(m, t)
		if b.preHits[t] == 1 && t != h && b.applicative(t) {
			b.flags[t] |= flagAssigned
			moved := b.transferBlock(m, h, t)
			ps.Transferred += int64(moved)
			ps.Matched++
			ps.PreMatched++
			ps.Messages++ // the accept reply
			continue
		}
		remaining = append(remaining, h)
	}
	for _, t := range touched {
		b.preHits[t] = 0
	}
	b.preTouched = touched[:0]
	return remaining
}

// growTrees plays the per-level collision games and processes id
// messages (the body of Figure 2).
func (b *Balancer) growTrees(m *sim.Machine, searchers []int32, ps *PhaseStats) {
	cfg := &b.cfg
	next := b.searchB[:0]
	for round := 0; round < cfg.TreeDepth && len(searchers) > 0; round++ {
		ps.Rounds++
		ps.Requests += int64(len(searchers))

		res := b.col.Run(b.n, searchers, cfg.Collision, b.rng, 0)
		ps.Messages += res.Messages
		ps.Steps += res.Steps
		m.AddCommRounds(int64(res.Rounds))

		next = next[:0]
		for i, s := range searchers {
			b.flags[s] &^= flagInTree
			root := b.boss[s]
			if b.flags[root]&flagMatched != 0 {
				continue // the tree already found a partner
			}
			if !res.Satisfied[i] {
				// Collision game failed for this request; retry at the
				// next level.
				next = appendSearcher(b, next, s, root)
				continue
			}
			// The request's first b accepted targets form a sibling
			// group (b=2 in the paper). They coordinate
			// applicativeness via their parent: one message each.
			group := res.Accepted[i][:cfg.Collision.B]
			for _, t := range group {
				b.touch(m, t)
				b.boss[t] = root
			}
			ps.Messages += int64(len(group))
			anyApplicative := false
			for _, t := range group {
				if b.applicative(t) {
					anyApplicative = true
					b.flags[t] |= flagAssigned
					b.sendID(root, t, ps)
				}
			}
			if !anyApplicative {
				// The whole group is non-applicative: it supports the
				// search and forwards requests in the next round.
				for _, t := range group {
					next = appendSearcher(b, next, t, root)
				}
			}
		}

		// Roots with an id message transfer and leave the game.
		b.settle(m, ps)

		// Drop searchers whose tree got matched this round.
		alive := next[:0]
		for _, s := range next {
			if b.flags[b.boss[s]]&flagMatched != 0 {
				b.flags[s] &^= flagInTree
				continue
			}
			alive = append(alive, s)
		}
		searchers, next = alive, searchers
	}
	// Keep the (possibly grown) buffers for the next phase.
	b.searchA, b.searchB = searchers[:0], next[:0]
}

// applicative reports whether processor t can be reserved as a
// balancing partner: light at phase start and not yet reserved.
func (b *Balancer) applicative(t int32) bool {
	return b.flags[t]&(flagLight|flagAssigned) == flagLight
}

// sendID delivers an id message from light processor t to root. The
// root keeps the first arrival ("an arbitrary one is selected") and
// joins the settle queue.
func (b *Balancer) sendID(root, t int32, ps *PhaseStats) {
	ps.Messages++
	if b.partner[root] < 0 {
		b.partner[root] = t
		b.newPartners = append(b.newPartners, root)
	}
}

// settle performs the transfers for all newly partnered roots, in
// ascending root order (the order the old full-array scan used), so
// the transfer sequence is independent of id-message arrival order.
func (b *Balancer) settle(m *sim.Machine, ps *PhaseStats) {
	if len(b.newPartners) == 0 {
		return
	}
	slices.Sort(b.newPartners)
	for _, root := range b.newPartners {
		moved := b.transferBlock(m, root, b.partner[root])
		ps.Transferred += int64(moved)
		b.flags[root] |= flagMatched
		ps.Matched++
	}
	b.newPartners = b.newPartners[:0]
}

// appendSearcher adds s to the next-round searcher set under root,
// unless it is already active in some tree.
func appendSearcher(b *Balancer, next []int32, s, root int32) []int32 {
	if b.flags[s]&flagInTree != 0 {
		return next
	}
	b.flags[s] |= flagInTree
	b.boss[s] = root
	return append(next, s)
}
