// Sparse event-driven execution (ROADMAP item 2, the frontier move).
//
// A model that draws per-processor randomness (gen.Single) makes the
// dense machine advance every processor's stream every tick, so wall
// clock scales with n even though the paper proves the balancing work
// is asymptotically negligible (Lemma 4 bounds the heavy set, Lemma 7
// the per-phase requests). The sparse mode steps only the processors
// that can matter this tick and advances everyone else lazily:
//
//   - Loads live in plain counters (m.loads); there are no task queues.
//     Generation, consumption and block transfers are the only load
//     mutations, so counter arithmetic reproduces queue lengths
//     exactly.
//   - Each processor records the last step it was replayed to
//     (lastSync). Reading or mutating a processor first catches it up
//     by replaying its private xrand stream over the skipped interval —
//     the same draws, in the same order, as the dense step loop would
//     have made. Trajectories are therefore bit-identical to dense
//     runs, which the golden-digest equivalence suite enforces.
//   - A timing wheel schedules each light processor's earliest
//     possible heavy-threshold crossing: a processor d below the
//     threshold cannot become heavy for ceil(d / maxGenPerStep) steps
//     (the gen.Bounded contract), so it need not be looked at before
//     then. Each wheel bucket is an n-bit id bitset, so a due bucket
//     pops in ascending id order with no sort. Heavy processors are
//     not in the wheel at all — the step loop walks the heavy list
//     directly (it is small, by Lemma 4) and demotes on the spot, so
//     the wheel's hot pop path never touches heavy-set bookkeeping for
//     the common light-stays-light case.
//     Together the two passes keep the heavy set exact at the moment
//     the balancer reads it; balancers iterate HeavyIDs() instead of
//     sweeping all n loads.
//
// The per-step cost is O(heavy + due-for-recheck + transfers) with the
// replay work amortizing to the same total RNG draws a dense run makes
// — but made in tight, queue-free, dispatch-free loops, which is where
// the constant-factor speedup comes from. See docs/PERFORMANCE.md.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"plb/internal/gen"
	"plb/internal/par"
	"plb/internal/xrand"
)

// wheelSpan caps the timing wheel's ring length (a power of two).
// ConfigureHeavyIndex sizes the ring to the smallest power of two
// above the longest due delta, dueDelta(0), so no schedule laps it.
// Each bucket is an n-bit id bitset, so a ring of r buckets costs r/8
// bytes per processor (2 B for bfm98's ring of 16 at n=2^20). Under a
// threshold whose deltas exceed the cap, schedules lap: an entry whose
// real due step has not arrived when its bucket pops keeps its bit and
// waits another lap, so far-future schedules stay correct at the cost
// of one wasted look per lap.
const wheelSpan = 1 << 6

// noSchedule marks a processor with no live wheel entry. It is below
// every reachable due step, including due 0 scheduled while the
// pre-step sync target is still -1, so a popped bucket drops it as
// stale.
const noSchedule = math.MinInt32

// procSparse is one processor's lazy-sync state. The two fields are
// deliberately in one struct: a wheel recheck reads scheduled and then
// lastSync for the same processor, so packing them puts both on a
// single cache line and halves the random-access misses of the hot
// pop path. Both are int32 step stamps; stepLimit keeps the clock
// where they cannot wrap.
type procSparse struct {
	lastSync  int32 // last step replayed
	scheduled int32 // live due step in the wheel (noSchedule = none)
}

type sparseEngine struct {
	// target is the step every read must be synced to: m.now while a
	// step executes, m.now-1 between steps (-1 before the first).
	target int64
	procs  []procSparse

	// Heavy index, configured by a balancer via ConfigureHeavyIndex.
	heavyT      int // heavy threshold; 0 = no index installed
	maxGen      int // gen.Bounded bound; 0 = model never generates
	heavy       []int32
	heavyPos    []int32 // processor -> position in heavy, -1 absent
	heavySorted bool

	// Timing wheel: a ring of id bitsets, bucket b in
	// wheel[b*words:(b+1)*words], indexed by due step & mask.
	wheel []uint64
	mask  int64
	words int

	// stepLimit is the last step the machine may run: every stamp it
	// stores, a due step up to dueDelta(0) ahead included, fits int32.
	stepLimit int64

	// Per-shard counters (syncAll replays shards in parallel).
	completedShard []int64
	syncedShard    []int64 // processors caught up (work accounting)
	replayedShard  []int64 // steps replayed (work accounting)
}

func newSparseEngine(n, shards int) *sparseEngine {
	e := &sparseEngine{
		target:         -1,
		procs:          make([]procSparse, n),
		heavyPos:       make([]int32, n),
		heavySorted:    true,
		stepLimit:      math.MaxInt32,
		completedShard: make([]int64, shards),
		syncedShard:    make([]int64, shards),
		replayedShard:  make([]int64, shards),
	}
	for p := range e.procs {
		e.procs[p] = procSparse{lastSync: -1, scheduled: noSchedule}
		e.heavyPos[p] = -1
	}
	return e
}

// SparseActive reports whether the machine runs in the sparse
// event-driven mode, which keeps load counters instead of tasks (so it
// has no weighted service).
func (m *Machine) SparseActive() bool { return m.sparse != nil }

// ConfigureHeavyIndex sets the heavy threshold HeavyIDs reports
// against: a processor is heavy when its load is at least heavyT, or,
// with byWeight, when its remaining service weight is (on a sparse
// machine every task has unit weight, so the two agree). A balancer
// that wants HeavyIDs calls this from its Init. The dense machine
// derives the set from its live loads on each HeavyIDs call; the sparse
// machine keeps an incremental heavy index, which must be installed
// before the first Step.
func (m *Machine) ConfigureHeavyIndex(heavyT int, byWeight bool) {
	if heavyT <= 0 {
		panic(fmt.Sprintf("sim: ConfigureHeavyIndex(%d): threshold must be positive", heavyT))
	}
	e := m.sparse
	if e == nil {
		m.heavyT, m.heavyByWeight = heavyT, byWeight
		return
	}
	if m.now != 0 || e.target != -1 {
		panic("sim: ConfigureHeavyIndex after stepping began")
	}
	bm := m.model.(gen.Bounded) // guaranteed by validateSparse
	e.heavyT = heavyT
	e.maxGen = bm.MaxGenPerStep()
	span := int64(wheelSpan)
	if d := e.dueDelta(0); e.maxGen > 0 && d < wheelSpan {
		span = 1 << bits.Len64(uint64(d))
	}
	e.mask = span - 1
	e.words = (m.n + 63) / 64
	e.wheel = make([]uint64, span*int64(e.words))
	e.stepLimit = math.MaxInt32 - e.dueDelta(0)
	for p := 0; p < m.n; p++ {
		e.reclassify(m, p)
	}
}

// HeavyIDs returns the processors whose load (or weight) is at least
// the configured heavy threshold, in ascending id order, and nil before
// ConfigureHeavyIndex. The slice is owned by the machine and valid only
// until the next load mutation or HeavyIDs call; callers that transfer
// while iterating must copy it first.
//
// A dense machine reads its busy set where it keeps one (every heavy
// processor has a non-empty queue: a queued task has at least one unit
// of remaining weight) and otherwise makes one contiguous scan of the
// live loads.
func (m *Machine) HeavyIDs() []int32 {
	e := m.sparse
	if e == nil {
		return m.denseHeavy()
	}
	if !e.heavySorted {
		slices.Sort(e.heavy)
		for i, p := range e.heavy {
			e.heavyPos[p] = int32(i)
		}
		e.heavySorted = true
	}
	return e.heavy
}

func (m *Machine) denseHeavy() []int32 {
	if m.heavyT <= 0 {
		return nil
	}
	ids, h := m.heavyBuf[:0], m.heavyT
	switch {
	case m.busy != nil:
		for i, w := range m.busy {
			for ; w != 0; w &= w - 1 {
				p := i<<6 | bits.TrailingZeros64(w)
				l := int64(m.loads[p])
				if m.heavyByWeight {
					l = m.wloads[p]
				}
				if l >= int64(h) {
					ids = append(ids, int32(p))
				}
			}
		}
	case m.heavyByWeight:
		for p, w := range m.wloads {
			if w >= int64(h) {
				ids = append(ids, int32(p))
			}
		}
	default:
		for p, l := range m.loads {
			if int(l) >= h {
				ids = append(ids, int32(p))
			}
		}
	}
	m.heavyBuf = ids
	return ids
}

// SparseStats returns the event-driven mode's work counters: how many
// lazy catch-ups ran and how many skipped steps they replayed. The
// ratio replayed/steps/n is the fraction of dense work performed.
func (m *Machine) SparseStats() (synced, replayed int64) {
	e := m.sparse
	for i := range e.syncedShard {
		synced += e.syncedShard[i]
		replayed += e.replayedShard[i]
	}
	return synced, replayed
}

func (e *sparseEngine) completedTotal() int64 {
	var total int64
	for _, c := range e.completedShard {
		total += c
	}
	return total
}

// syncOne catches processor p up to the current sync target,
// sequentially (shard 0 counters).
func (e *sparseEngine) syncOne(m *Machine, p int) {
	ps := &e.procs[p]
	last := int64(ps.lastSync)
	if last >= e.target {
		return
	}
	g, c := m.replaySteps(p, last, e.target)
	m.gens[0] += g
	e.completedShard[0] += c
	e.syncedShard[0]++
	e.replayedShard[0] += e.target - last
	ps.lastSync = int32(e.target)
}

// syncAll catches every processor up to the sync target, sharded in
// parallel: replay touches only processor-private state (stream, load)
// and the counters are per-shard, so shards never share memory. No
// rescheduling is needed — an existing wheel entry remains a valid
// upper bound on the crossing step (the bound is a property of the
// trajectory, not of when we look), and heavy processors are already
// synced every step.
func (e *sparseEngine) syncAll(m *Machine) {
	par.Ranges(m.n, m.workers, func(shard, lo, hi int) {
		var g, c, synced, replayed int64
		for p := lo; p < hi; p++ {
			ps := &e.procs[p]
			last := int64(ps.lastSync)
			if last >= e.target {
				continue
			}
			gg, cc := m.replaySteps(p, last, e.target)
			g += gg
			c += cc
			synced++
			replayed += e.target - last
			ps.lastSync = int32(e.target)
		}
		m.gens[shard] += g
		e.completedShard[shard] += c
		e.syncedShard[shard] += synced
		e.replayedShard[shard] += replayed
	})
}

// replaySteps advances processor p over steps (from, to], drawing from
// its private stream exactly as the dense step loop would: one
// generate draw (unless gated off), one consume draw, nothing while
// down. It returns the tasks generated and completed.
func (m *Machine) replaySteps(p int, from, to int64) (gens, comps int64) {
	r := &m.streams[p]
	load := int64(m.loads[p])
	if m.singleFast {
		// Devirtualized fast path for the paper's primary model
		// (gen.Single with P+Eps < 1; thresholds precomputed in New).
		// The guard keeps Bernoulli semantics exact: NewSingle ensures
		// 0 < P and P < P+Eps, and P+Eps < 1 means both draws really
		// consume one Float64 each (Bernoulli(p>=1) would draw none).
		// The stream is copied into locals so the xoshiro state stays
		// in registers across the whole batch, and the Float64 < p
		// comparison runs as the exactly-equivalent integer test
		// u>>11 < ceil(p * 2^53) — same accept set, no float ops.
		gt, ct := m.genThr, m.consThr
		lr := *r
		if m.down == nil && m.genOff == nil {
			// Two branchless passes per ≤64-step block. Pass 1 is pure
			// RNG: it packs each draw's accept bit into a mask
			// (u < thr computed as the borrow bit of u-thr), keeping
			// only the four xoshiro words plus two masks live, so the
			// whole chain runs from registers and consecutive
			// processors' chains overlap in the out-of-order window.
			// Pass 2 applies the bits to the load with no RNG at all;
			// completions fall out of task conservation afterwards
			// (comps = before + gens - after).
			before := load
			for rem := to - from; rem > 0; {
				k := rem
				if k > 64 {
					k = 64
				}
				var maskG, maskC uint64
				for j := uint(0); j < uint(k); j++ {
					maskG |= (lr.Uint64()>>11 - gt) >> 63 << j
					maskC |= (lr.Uint64()>>11 - ct) >> 63 << j
				}
				gens += int64(bits.OnesCount64(maskG))
				for j := uint(0); j < uint(k); j++ {
					load += int64(maskG >> j & 1)
					c := int64(maskC>>j&1) & (-load >> 63 & 1)
					load -= c
				}
				rem -= k
			}
			comps = before + gens - load
		} else {
			for t := from + 1; t <= to; t++ {
				if m.down != nil && m.down(p, t) {
					continue
				}
				if m.genOff == nil || !m.genOff(p, t) {
					if lr.Uint64()>>11 < gt {
						gens++
						load++
					}
				}
				if lr.Uint64()>>11 < ct && load > 0 {
					load--
					comps++
				}
			}
		}
		*r = lr
		m.loads[p] = int32(load)
		return gens, comps
	}
	for t := from + 1; t <= to; t++ {
		if m.down != nil && m.down(p, t) {
			continue
		}
		if m.genOff == nil || !m.genOff(p, t) {
			g := m.model.Generate(p, r, t)
			gens += int64(g)
			load += int64(g)
		}
		want := m.model.WantConsume(p, r, t)
		if want > 0 && load > 0 {
			c := int64(want)
			if c > load {
				c = load
			}
			load -= c
			comps += c
		}
	}
	m.loads[p] = int32(load)
	return gens, comps
}

// syncHeavy catches every heavy processor up to the current step and
// demotes the ones that fell below the threshold. Heavy processors
// live only in the heavy list (never in the wheel), so this walk is
// what keeps them exact every step; it runs before processDue so the
// balancer sees a fully synced index. The walk swap-removes in place —
// on demotion the swapped-in tail entry lands at i and is processed
// next, so no processor is skipped.
func (e *sparseEngine) syncHeavy(m *Machine) {
	for i := 0; i < len(e.heavy); {
		p := e.heavy[i]
		e.syncOne(m, int(p))
		if int(m.loads[p]) >= e.heavyT {
			i++
			continue
		}
		e.heavyRemove(p)
		e.schedule(p, e.target+e.dueDelta(int(m.loads[p])))
	}
}

// processDue pops the wheel bucket for the current step and rechecks
// every processor whose scheduled crossing step has arrived. Entries
// are lazily deleted: a processor rescheduled since its bit was set
// leaves a stale bit behind (scheduled no longer matches), and a
// far-future entry keeps its bit and laps the wheel until its real due
// step comes up. Only light processors are ever scheduled, so the hot
// path is light-stays-light: sync, reschedule, no heavy-set access at
// all. The bitset pops in ascending processor order: the recheck
// itself is order-independent (private streams, commutative
// counters), but an ascending walk turns the per-entry
// procs/loads/streams accesses into a near-sequential sweep the
// hardware prefetcher can stream. A reschedule lands in this same
// bucket only with a delta of a whole ring (a lap, or a model that
// never generates); the rescheduled processor's word was read into w
// and cleared before its walk, so the new bit stays for the next lap.
func (e *sparseEngine) processDue(m *Machine) {
	if e.heavyT <= 0 {
		return
	}
	t := e.target
	b := e.wheel[(t&e.mask)*int64(e.words):][:e.words]
	for i := range b {
		w := b[i]
		if w == 0 {
			continue
		}
		b[i] = 0
		for ; w != 0; w &= w - 1 {
			p := int32(i<<6 | bits.TrailingZeros64(w))
			ps := &e.procs[p]
			switch d := int64(ps.scheduled); {
			case d == t:
				ps.scheduled = noSchedule
				e.syncOne(m, int(p))
				if int(m.loads[p]) >= e.heavyT {
					e.heavyAdd(p) // scheduled already cleared above
				} else {
					e.schedule(p, t+e.dueDelta(int(m.loads[p])))
				}
			case d > t:
				b[i] |= w & -w // lapped early; wait another lap
			}
			// d < t (noSchedule included): stale bit of a rescheduled
			// (or already fired) entry.
		}
	}
}

// reclassify re-derives processor p's heavy membership from its
// (synced) load and schedules its next mandatory recheck: heavy
// processors are walked every step via syncHeavy (and carry no wheel
// entry), light ones are scheduled at their earliest possible
// crossing. Callers must sync p first.
func (e *sparseEngine) reclassify(m *Machine, p int) {
	if e.heavyT <= 0 {
		return
	}
	if int(m.loads[p]) >= e.heavyT {
		e.heavyAdd(int32(p))
		e.procs[p].scheduled = noSchedule // any live wheel entry turns stale
		return
	}
	e.heavyRemove(int32(p))
	e.schedule(int32(p), e.target+e.dueDelta(int(m.loads[p])))
}

// dueDelta returns how many steps processor at the given load can be
// ignored before it could reach the heavy threshold.
func (e *sparseEngine) dueDelta(load int) int64 {
	if e.maxGen == 1 {
		// Division-free path for the paper's one-task-per-step models
		// (every due recheck takes it, so it is worth special-casing).
		d := int64(e.heavyT) - int64(load)
		if d < 1 {
			d = 1
		}
		return d
	}
	if e.maxGen <= 0 {
		// The model never generates: the load can only fall, so the
		// processor can never cross upward. Recheck once per lap to
		// keep the entry alive (transfers reclassify eagerly anyway).
		return e.mask + 1
	}
	d := (int64(e.heavyT) - int64(load) + int64(e.maxGen) - 1) / int64(e.maxGen)
	if d < 1 {
		d = 1
	}
	return d
}

// schedule sets p's bit in the wheel bucket of step due. An earlier
// live entry wins (early rechecks are harmless, missing one is not);
// the superseded later entry turns stale and is dropped when its
// bucket pops.
func (e *sparseEngine) schedule(p int32, due int64) {
	if due <= e.target {
		due = e.target + 1
	}
	ps := &e.procs[p]
	if s := int64(ps.scheduled); s > e.target && s <= due {
		return
	}
	ps.scheduled = int32(due)
	e.wheel[(due&e.mask)*int64(e.words)+int64(p>>6)] |= 1 << (p & 63)
}

func (e *sparseEngine) heavyAdd(p int32) {
	if e.heavyPos[p] >= 0 {
		return
	}
	e.heavyPos[p] = int32(len(e.heavy))
	e.heavy = append(e.heavy, p)
	if len(e.heavy) > 1 && e.heavy[len(e.heavy)-2] > p {
		e.heavySorted = false
	}
}

func (e *sparseEngine) heavyRemove(p int32) {
	i := e.heavyPos[p]
	if i < 0 {
		return
	}
	last := int32(len(e.heavy) - 1)
	moved := e.heavy[last]
	e.heavy[i] = moved
	e.heavyPos[moved] = i
	e.heavy = e.heavy[:last]
	e.heavyPos[p] = -1
	if i != last {
		e.heavySorted = false
	}
}

// scatterSparse mirrors Scatter's count semantics: every queued task
// is re-placed on a uniform processor, drawing r once per task in the
// same order the dense pool walk does (pool assembled in ascending
// processor order; destinations drawn per task).
func (m *Machine) scatterSparse(r *xrand.Stream) int64 {
	e := m.sparse
	e.syncAll(m)
	var moved int64
	for p := 0; p < m.n; p++ {
		moved += int64(m.loads[p])
		m.loads[p] = 0
	}
	for i := int64(0); i < moved; i++ {
		m.loads[r.Intn(m.n)]++
	}
	if e.heavyT > 0 {
		for p := 0; p < m.n; p++ {
			e.reclassify(m, p)
		}
	}
	atomic.AddInt64(&m.metrics.TasksMoved, moved)
	return moved
}

// scatterFromSparse mirrors ScatterFrom: each of p's tasks draws one
// Intn(n-1) destination (skipping p), like the dense block walk.
func (m *Machine) scatterFromSparse(p int, r *xrand.Stream) int64 {
	e := m.sparse
	e.syncOne(m, p)
	k := int64(m.loads[p])
	if k == 0 {
		return 0
	}
	m.loads[p] = 0
	for i := int64(0); i < k; i++ {
		dest := r.Intn(m.n - 1)
		if dest >= p {
			dest++
		}
		m.loads[dest]++
		e.reclassify(m, dest)
	}
	e.reclassify(m, p)
	atomic.AddInt64(&m.metrics.TasksMoved, k)
	atomic.AddInt64(&m.metrics.BalanceActions, 1)
	return k
}
