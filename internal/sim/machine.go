// Package sim is the synchronous parallel-machine substrate on which
// the paper's algorithm and all baselines run.
//
// The paper's model of computation is n processors advancing in lock
// step; a time step consists of (a) generating and consuming load, (b)
// making balancing decisions, and (c) actually moving load (Section
// 5). The Machine realizes exactly that: each Step it
//
//  1. lets the generation model plan (sequential hook for adversaries),
//  2. generates and consumes tasks on the processors, and
//  3. hands control to the installed Balancer, which may inspect loads,
//     exchange messages (accounted in Metrics) and move tasks.
//
// Models that draw per-processor randomness (gen.Single and kin) step
// every processor, in parallel shards. A planned model (gen.StepAware,
// the adversaries) decides centrally who generates, and by its planning
// contract an idle processor with no planned generation draws nothing
// and changes nothing; the dense machine therefore keeps a busy set
// (one bit per processor with a non-empty queue) and walks only the
// busy and planned processors, sequentially, in ascending id order.
// Either way the live load vector (Snapshot) is kept current at every
// queue change, so no step re-derives it.
//
// Determinism: every processor owns a private random stream derived
// from the machine seed, shard boundaries are pure functions of
// (n, workers), and cross-processor effects occur only in the balancer
// phase, so a run is bit-reproducible for a given seed regardless of
// the worker count.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"plb/internal/deque"
	"plb/internal/gen"
	"plb/internal/par"
	"plb/internal/task"
	"plb/internal/xrand"
)

// Balancer is a load-balancing algorithm driven by the machine once
// per time step, after generation and consumption.
type Balancer interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Init is called once when the machine is constructed.
	Init(m *Machine)
	// Step runs the algorithm for one time step.
	Step(m *Machine)
}

// Placer routes newly generated tasks to processors, modeling the
// paper's comparison class of balls-into-bins task-allocation games
// (load comes "from the outside" and is placed globally). When a
// Placer is installed, the machine runs generation sequentially so the
// placer may inspect any queue length without races; this is purely a
// scheduling change, not a semantic one.
type Placer interface {
	// Name identifies the allocation strategy in experiment tables.
	Name() string
	// Init is called once at machine construction.
	Init(m *Machine)
	// Place returns the destination processor for a task generated at
	// origin; r is origin's private stream.
	Place(m *Machine, origin int, r *xrand.Stream) int
}

// Metrics accounts the communication and movement cost of balancing.
type Metrics struct {
	// Messages counts every point-to-point message sent by the
	// balancer (queries, accepts, id messages, probes...).
	Messages int64
	// BalanceActions counts completed partner agreements (one per
	// transfer decision).
	BalanceActions int64
	// TasksMoved counts individual tasks moved between processors.
	TasksMoved int64
	// CommRounds counts synchronous communication rounds consumed by
	// the balancer (e.g. collision-game rounds).
	CommRounds int64
	// Retries counts re-query volleys the balancer sent while fault
	// injection was active (the hardened protocol's recovery traffic).
	// Zero in every fault-free run.
	Retries int64
	// Drops counts balancer messages lost to fault injection — drop
	// coins, partition cuts, and messages discarded because an
	// endpoint was crashed. Zero in every fault-free run.
	Drops int64
	// AbandonedPhases counts phases a heavy root gave up without a
	// partner while fault injection was active (its timeout expired
	// with no id message heard). Zero in every fault-free run.
	AbandonedPhases int64
}

// Config configures a Machine.
type Config struct {
	// N is the number of processors; must be at least 2.
	N int
	// Model is the load generation/consumption model.
	Model gen.Model
	// Balancer runs each step; nil means an unbalanced system.
	Balancer Balancer
	// Placer, if non-nil, globally routes newly generated tasks
	// (balls-into-bins task allocation). It composes with Balancer,
	// though the paper's comparisons use one or the other.
	Placer Placer
	// Weigher, if non-nil, assigns service weights to generated tasks
	// (the weighted extension); nil means the paper's unit tasks. A
	// processor's WantConsume value is then a per-step service budget
	// rather than a task count.
	Weigher gen.Weigher
	// Seed is the master random seed.
	Seed uint64
	// Workers is the parallel shard count; <= 0 means GOMAXPROCS.
	Workers int
	// Sparse selects the event-driven execution mode: per-processor
	// load counters instead of task queues, with idle processors
	// advanced lazily by replaying their private random streams in
	// batch (bit-identical trajectories, no per-step O(n) sweep). It
	// requires a gen.Bounded model and excludes Placer, Weigher and
	// StepAware models — New reports an error for those combinations.
	// Task identity (wait times, hops, locality) is not tracked;
	// Collect publishes Tasks == nil.
	Sparse bool
}

// Machine is the simulated n-processor system.
type Machine struct {
	n       int
	model   gen.Model
	bal     Balancer
	workers int
	seed    uint64
	now     int64

	queues  []deque.Deque[task.Task]
	streams []xrand.Stream // by value: 32 B/processor, cache-dense at frontier n
	loads   []int32        // live queue lengths (dense) or authoritative counters (sparse)
	busy    []uint64       // planned-model dense machines: bit p set iff p's queue is non-empty
	recs    []task.Recorder
	gens    []int64 // per-shard generated-task counters
	wloads  []int64 // per-processor remaining service weight
	wsnap   []int64 // SnapshotWeights buffer (lazily allocated)
	weigher gen.Weigher
	xferBuf []task.Task // Transfer block scratch (balancer phase is sequential)

	metrics   Metrics
	stepAware gen.StepAware
	placer    Placer
	down      func(p int, now int64) bool
	genOff    func(p int, now int64) bool
	sparse    *sparseEngine // nil in the dense (task-queue) mode

	// Dense heavy set (ConfigureHeavyIndex): HeavyIDs derives it on
	// each call into heavyBuf, by load or by remaining weight.
	heavyT        int
	heavyByWeight bool
	heavyBuf      []int32

	// Devirtualized replay thresholds for the paper's primary model
	// (gen.Single with P+Eps < 1), precomputed once so the sparse
	// replay loop runs on integer compares. See replaySteps.
	singleFast      bool
	genThr, consThr uint64
}

// New constructs a Machine. All processors start empty.
func New(cfg Config) (*Machine, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("sim: need at least 2 processors, got %d", cfg.N)
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("sim: Config.Model is required")
	}
	m := &Machine{
		n:       cfg.N,
		model:   cfg.Model,
		bal:     cfg.Balancer,
		workers: cfg.Workers,
		seed:    cfg.Seed,
		streams: make([]xrand.Stream, cfg.N),
		loads:   make([]int32, cfg.N),
		recs:    make([]task.Recorder, par.NumShards(cfg.N, cfg.Workers)),
		gens:    make([]int64, par.NumShards(cfg.N, cfg.Workers)),
		weigher: cfg.Weigher,
	}
	if sa, ok := cfg.Model.(gen.StepAware); ok {
		m.stepAware = sa
	}
	if cfg.Sparse {
		if err := validateSparse(cfg); err != nil {
			return nil, err
		}
		m.sparse = newSparseEngine(cfg.N, par.NumShards(cfg.N, cfg.Workers))
	} else {
		m.queues = make([]deque.Deque[task.Task], cfg.N)
		m.wloads = make([]int64, cfg.N)
		if m.stepAware != nil && cfg.Placer == nil {
			m.busy = make([]uint64, (cfg.N+63)/64)
		}
	}
	root := xrand.New(cfg.Seed)
	for p := 0; p < cfg.N; p++ {
		m.streams[p] = *root.Split(uint64(p))
	}
	if s, ok := cfg.Model.(gen.Single); ok && s.P+s.Eps < 1 {
		// Bernoulli(p) on a Float64 in [0,1) is exactly the integer
		// test u>>11 < ceil(p * 2^53): Float64 divides a 53-bit
		// integer by 2^53 (both exact), and scaling p by the same
		// power of two is exact too, so the two comparisons agree on
		// every draw. replaySteps uses these.
		m.singleFast = true
		m.genThr = uint64(math.Ceil(s.P * (1 << 53)))
		m.consThr = uint64(math.Ceil((s.P + s.Eps) * (1 << 53)))
	}
	m.placer = cfg.Placer
	if m.placer != nil {
		m.placer.Init(m)
	}
	if m.bal != nil {
		m.bal.Init(m)
	}
	return m, nil
}

// validateSparse rejects configurations the event-driven mode cannot
// replay bit-identically.
func validateSparse(cfg Config) error {
	if cfg.Placer != nil {
		return fmt.Errorf("sim: Sparse excludes Placer (routing inspects queues globally every step)")
	}
	if cfg.Weigher != nil {
		return fmt.Errorf("sim: Sparse excludes Weigher (weighted service needs task identity)")
	}
	if _, ok := cfg.Model.(gen.StepAware); ok {
		return fmt.Errorf("sim: Sparse excludes StepAware models (%s needs a per-step global snapshot)", cfg.Model.Name())
	}
	if _, ok := cfg.Model.(gen.Bounded); !ok {
		return fmt.Errorf("sim: Sparse requires a gen.Bounded model, %s has no per-step generation bound", cfg.Model.Name())
	}
	return nil
}

// N returns the number of processors.
func (m *Machine) N() int { return m.n }

// Now returns the current step count.
func (m *Machine) Now() int64 { return m.now }

// Model returns the installed generation model.
func (m *Machine) Model() gen.Model { return m.model }

// BalancerName returns the installed balancer's name, the placer's
// name if only a placer is installed, or "unbalanced".
func (m *Machine) BalancerName() string {
	if m.bal != nil {
		return m.bal.Name()
	}
	if m.placer != nil {
		return m.placer.Name()
	}
	return "unbalanced"
}

// Load returns the queue length of processor p.
func (m *Machine) Load(p int) int {
	if e := m.sparse; e != nil {
		e.syncOne(m, p)
		return int(m.loads[p])
	}
	return m.queues[p].Len()
}

// Snapshot returns the machine's live load vector: entry p is processor
// p's queue length, kept current at every load change (a sparse
// machine first catches every processor up). The slice is owned by the
// machine and changes as loads do; callers must not modify it, and must
// copy it to keep a past state.
func (m *Machine) Snapshot() []int32 {
	if e := m.sparse; e != nil {
		e.syncAll(m)
	}
	return m.loads
}

// MaxLoad returns the largest queue length.
func (m *Machine) MaxLoad() int {
	loads := m.Snapshot()
	return par.RangesReduce(m.n, m.workers, func(_, lo, hi int) int {
		best := 0
		for _, l := range loads[lo:hi] {
			best = max(best, int(l))
		}
		return best
	}, func(a, b int) int { return max(a, b) })
}

// TotalLoad returns the total number of queued tasks in the system.
func (m *Machine) TotalLoad() int64 {
	if e := m.sparse; e != nil {
		e.syncAll(m)
		return m.Generated() - e.completedTotal()
	}
	return par.RangesReduce(m.n, m.workers, func(_, lo, hi int) int64 {
		var sum int64
		for _, l := range m.loads[lo:hi] {
			sum += int64(l)
		}
		return sum
	}, func(a, b int64) int64 { return a + b })
}

// noteLoad records processor p's queue length in the live load vector
// and, on a machine that keeps one, in the busy set. Sequential code
// calls it after every queue change; the parallel sweep writes only
// loads[p] (stepRange) and never runs on a machine with a busy set, so
// it needs no atomics.
func (m *Machine) noteLoad(p int) {
	l := m.queues[p].Len()
	m.loads[p] = int32(l)
	if m.busy != nil {
		bit := uint64(1) << (uint(p) & 63)
		if l > 0 {
			m.busy[p>>6] |= bit
		} else {
			m.busy[p>>6] &^= bit
		}
	}
}

// Inject pushes k fresh tasks onto processor p's queue (used to set up
// worst-case initial states). Injected tasks count as generated.
func (m *Machine) Inject(p, k int) {
	if e := m.sparse; e != nil {
		e.syncOne(m, p)
		m.loads[p] += int32(k)
		m.gens[0] += int64(k)
		e.reclassify(m, p)
		return
	}
	for i := 0; i < k; i++ {
		m.queues[p].PushBack(task.Task{Origin: int32(p), Birth: m.now, Weight: 1, Remaining: 1})
	}
	m.wloads[p] += int64(k)
	m.gens[0] += int64(k)
	m.noteLoad(p)
}

// InjectWeighted pushes k fresh tasks of weight w each onto processor
// p's queue.
func (m *Machine) InjectWeighted(p, k int, w int32) {
	if w < 1 {
		w = 1
	}
	if m.sparse != nil {
		if w > 1 {
			panic("sim: InjectWeighted(w>1) on a sparse machine (weighted service needs task identity)")
		}
		m.Inject(p, k)
		return
	}
	for i := 0; i < k; i++ {
		m.queues[p].PushBack(task.Task{Origin: int32(p), Birth: m.now, Weight: w, Remaining: w})
	}
	m.wloads[p] += int64(k) * int64(w)
	m.gens[0] += int64(k)
	m.noteLoad(p)
}

// Generated returns the total number of tasks ever created (model
// generation plus Inject). At all times
// Generated() == Recorder().Completed + TotalLoad() — tasks are
// conserved.
func (m *Machine) Generated() int64 {
	var total int64
	for _, g := range m.gens {
		total += g
	}
	return total
}

// Transfer moves up to k tasks from the back of processor from's queue
// to the back of processor to's queue, preserving their order (the
// paper's balancing move), and accounts the move. It returns the
// number of tasks moved.
func (m *Machine) Transfer(from, to, k int) int {
	if from == to || k <= 0 {
		return 0
	}
	if e := m.sparse; e != nil {
		// Count arithmetic on synced endpoints: moved = min(k, load),
		// exactly what TakeBackInto produces from a real queue.
		e.syncOne(m, from)
		e.syncOne(m, to)
		moved := k
		if l := int(m.loads[from]); l < moved {
			moved = l
		}
		m.loads[from] -= int32(moved)
		m.loads[to] += int32(moved)
		e.reclassify(m, from)
		e.reclassify(m, to)
		atomic.AddInt64(&m.metrics.TasksMoved, int64(moved))
		atomic.AddInt64(&m.metrics.BalanceActions, 1)
		return moved
	}
	block := m.queues[from].TakeBackInto(m.xferBuf, k)
	var weight int64
	for i := range block {
		block[i].Hops++
		weight += int64(block[i].Remaining)
	}
	m.wloads[from] -= weight
	m.wloads[to] += weight
	m.queues[to].PushBackAll(block)
	m.xferBuf = block[:0]
	m.noteLoad(from)
	m.noteLoad(to)
	atomic.AddInt64(&m.metrics.TasksMoved, int64(len(block)))
	atomic.AddInt64(&m.metrics.BalanceActions, 1)
	return len(block)
}

// TransferWeight moves tasks from the back of from's queue to the back
// of to's queue until at least wbudget units of remaining service have
// moved (or from's queue empties), preserving order. It returns the
// number of tasks and the weight moved. The weighted balancer uses it
// in place of Transfer.
func (m *Machine) TransferWeight(from, to int, wbudget int64) (tasks int, weight int64) {
	if m.sparse != nil {
		panic("sim: TransferWeight on a sparse machine (ByWeight balancing needs task identity)")
	}
	if from == to || wbudget <= 0 {
		return 0, 0
	}
	src := &m.queues[from]
	var block []task.Task
	for weight < wbudget && src.Len() > 0 {
		t := src.PopBack()
		t.Hops++
		weight += int64(t.Remaining)
		block = append(block, t)
	}
	// block is in reverse queue order; re-append preserving the
	// original order (paper semantics: old order kept).
	dst := &m.queues[to]
	for i := len(block) - 1; i >= 0; i-- {
		dst.PushBack(block[i])
	}
	m.wloads[from] -= weight
	m.wloads[to] += weight
	m.noteLoad(from)
	m.noteLoad(to)
	atomic.AddInt64(&m.metrics.TasksMoved, int64(len(block)))
	atomic.AddInt64(&m.metrics.BalanceActions, 1)
	return len(block), weight
}

// WeightedLoad returns the remaining service weight queued on
// processor p (equals Load(p) for unit tasks).
func (m *Machine) WeightedLoad(p int) int64 {
	if m.sparse != nil {
		return int64(m.Load(p)) // unit tasks only in sparse mode
	}
	return m.wloads[p]
}

// MaxWeightedLoad returns the largest per-processor remaining weight.
func (m *Machine) MaxWeightedLoad() int64 {
	if m.sparse != nil {
		return int64(m.MaxLoad())
	}
	var max int64
	for _, w := range m.wloads {
		if w > max {
			max = w
		}
	}
	return max
}

// SnapshotWeights copies the per-processor remaining weights into a
// machine-owned buffer and returns it; the copy holds until the next
// SnapshotWeights call. Unlike Snapshot it is a private copy, not the
// live accounting array, so a caller mutating the returned slice
// cannot corrupt transfer bookkeeping.
func (m *Machine) SnapshotWeights() []int64 {
	if m.wsnap == nil {
		m.wsnap = make([]int64, m.n)
	}
	if m.sparse != nil {
		for p, l := range m.Snapshot() {
			m.wsnap[p] = int64(l)
		}
		return m.wsnap
	}
	copy(m.wsnap, m.wloads)
	return m.wsnap
}

// Scatter removes every queued task from every processor and
// re-places each on an independently, uniformly random processor drawn
// from r. Each moved task's hop count increases. It returns the number
// of tasks redistributed. Scatter is the primitive behind the paper's
// "throw all load into the air" strawman.
func (m *Machine) Scatter(r *xrand.Stream) int64 {
	if e := m.sparse; e != nil {
		return m.scatterSparse(r)
	}
	var moved int64
	var pool []task.Task
	for p := 0; p < m.n; p++ {
		q := &m.queues[p]
		pool = append(pool, q.TakeBack(q.Len())...)
	}
	for p := range m.wloads {
		m.wloads[p] = 0
	}
	for _, t := range pool {
		dest := r.Intn(m.n)
		t.Hops++
		m.queues[dest].PushBack(t)
		m.wloads[dest] += int64(t.Remaining)
		moved++
	}
	for p := 0; p < m.n; p++ {
		m.noteLoad(p)
	}
	atomic.AddInt64(&m.metrics.TasksMoved, moved)
	return moved
}

// SetDown installs a crash oracle: a processor for which fn reports
// true is down at that step — it generates nothing, consumes nothing,
// and its queue is frozen until fn reports it up again. Balancers that
// inject processor crashes (internal/proto with a fault plan) install
// this from Init so generation and protocol agree on who is alive.
// nil restores the immortal-processor default.
func (m *Machine) SetDown(fn func(p int, now int64) bool) { m.down = fn }

// Down reports whether processor p is crashed at the current step
// (always false without a SetDown oracle).
func (m *Machine) Down(p int) bool { return m.down != nil && m.down(p, m.now) }

// SetGenOff installs a generation gate: a processor for which fn
// reports true generates no new tasks that step but keeps consuming
// and keeps its queue live. This is the half-way state between up and
// down that elastic membership needs — a draining processor must stop
// taking on work while it hands its queue off, and a joining one has
// no workload yet. nil restores the always-generating default.
func (m *Machine) SetGenOff(fn func(p int, now int64) bool) { m.genOff = fn }

// GenOff reports whether processor p's task generation is gated off at
// the current step (always false without a SetGenOff gate).
func (m *Machine) GenOff(p int) bool { return m.genOff != nil && m.genOff(p, m.now) }

// ScatterFrom removes every task queued on processor p and re-places
// each on an independently, uniformly random other processor — the
// "redistribute on recovery" policy for a processor rejoining after a
// crash. Each moved task's hop count increases; the move is accounted
// as one balance action.
func (m *Machine) ScatterFrom(p int, r *xrand.Stream) int64 {
	if e := m.sparse; e != nil {
		return m.scatterFromSparse(p, r)
	}
	q := &m.queues[p]
	block := q.TakeBack(q.Len())
	if len(block) == 0 {
		return 0
	}
	for _, t := range block {
		dest := r.Intn(m.n - 1)
		if dest >= p {
			dest++
		}
		t.Hops++
		m.queues[dest].PushBack(t)
		m.wloads[p] -= int64(t.Remaining)
		m.wloads[dest] += int64(t.Remaining)
		m.noteLoad(dest)
	}
	m.noteLoad(p)
	atomic.AddInt64(&m.metrics.TasksMoved, int64(len(block)))
	atomic.AddInt64(&m.metrics.BalanceActions, 1)
	return int64(len(block))
}

// AddMessages accounts k balancer messages.
func (m *Machine) AddMessages(k int64) { atomic.AddInt64(&m.metrics.Messages, k) }

// AddRetries accounts k fault-recovery re-query volleys.
func (m *Machine) AddRetries(k int64) { atomic.AddInt64(&m.metrics.Retries, k) }

// AddDrops accounts k messages lost to fault injection.
func (m *Machine) AddDrops(k int64) { atomic.AddInt64(&m.metrics.Drops, k) }

// AddAbandonedPhases accounts k fault-abandoned phases.
func (m *Machine) AddAbandonedPhases(k int64) { atomic.AddInt64(&m.metrics.AbandonedPhases, k) }

// AddCommRounds accounts k synchronous communication rounds.
func (m *Machine) AddCommRounds(k int64) { atomic.AddInt64(&m.metrics.CommRounds, k) }

// Metrics returns a copy of the accumulated cost counters.
func (m *Machine) Metrics() Metrics { return m.metrics }

// Recorder returns the merged task-lifetime statistics.
func (m *Machine) Recorder() task.Recorder {
	var merged task.Recorder
	for i := range m.recs {
		merged.Merge(&m.recs[i])
	}
	return merged
}

// Step advances the machine by one time step.
func (m *Machine) Step() {
	if e := m.sparse; e != nil {
		// Event-driven step: no per-processor sweep. Raise the sync
		// target to this step, catch up the heavy list and the
		// processors whose heavy-threshold crossing is possible now
		// (the timing wheel's due bucket) — together they keep the
		// heavy index exact before the balancer looks at it — then let
		// the balancer run; everyone else stays un-replayed until
		// something reads or moves their load.
		if m.now > e.stepLimit {
			panic(fmt.Sprintf("sim: sparse machine cannot run step %d: its int32 step stamps end at step %d", m.now, e.stepLimit))
		}
		e.target = m.now
		e.syncHeavy(m)
		e.processDue(m)
		if m.bal != nil {
			m.bal.Step(m)
		}
		m.now++
		return
	}
	var planned []int32
	if m.stepAware != nil {
		planned = m.stepAware.BeginStep(m.now, m.loads)
	}
	switch {
	case m.placer != nil:
		m.stepPlaced()
	case m.busy != nil:
		m.stepPlanned(planned)
	default:
		m.stepLocal()
	}
	if m.bal != nil {
		m.bal.Step(m)
	}
	m.now++
}

// newTask builds a task generated on processor p, drawing its weight
// from the weigher (1 when none is installed).
func (m *Machine) newTask(p int, r *xrand.Stream) task.Task {
	w := int32(1)
	if m.weigher != nil {
		w = m.weigher.Weight(p, r, m.now)
		if w < 1 {
			w = 1
		}
	}
	return task.Task{Origin: int32(p), Birth: m.now, Weight: w, Remaining: w}
}

// consume serves up to budget units of work from processor p's queue,
// FIFO, completing tasks whose Remaining drains to zero.
func (m *Machine) consume(p int, budget int, rec *task.Recorder) {
	q := &m.queues[p]
	for budget > 0 && q.Len() > 0 {
		head := q.FrontPtr()
		if int(head.Remaining) > budget {
			head.Remaining -= int32(budget)
			m.wloads[p] -= int64(budget)
			return
		}
		budget -= int(head.Remaining)
		m.wloads[p] -= int64(head.Remaining)
		t := q.PopFront()
		rec.Complete(t, int32(p), m.now)
	}
}

// stepRange generates and consumes on processors lo..hi-1 for the
// current step (the paper's local model), records completions in rec,
// leaves each queue length in the live load vector, and returns the
// tasks generated. It touches only those processors' state, so shards
// may run it in parallel. The count is summed locally and added once
// per range, because the shards' m.gens entries share a cache line.
func (m *Machine) stepRange(lo, hi int, rec *task.Recorder) (generated int64) {
	for p := lo; p < hi; p++ {
		if m.down != nil && m.down(p, m.now) {
			continue // crashed: no generation, no consumption
		}
		r := &m.streams[p]
		q := &m.queues[p]
		if m.genOff == nil || !m.genOff(p, m.now) {
			g := m.model.Generate(p, r, m.now)
			generated += int64(g)
			for i := 0; i < g; i++ {
				t := m.newTask(p, r)
				m.wloads[p] += int64(t.Weight)
				q.PushBack(t)
			}
		}
		m.consume(p, m.model.WantConsume(p, r, m.now), rec)
		m.loads[p] = int32(q.Len())
	}
	return generated
}

// stepLocal steps every processor, sharded in parallel: models that
// draw per-processor randomness must advance every stream each step.
func (m *Machine) stepLocal() {
	par.Ranges(m.n, m.workers, func(shard, lo, hi int) {
		m.gens[shard] += m.stepRange(lo, hi, &m.recs[shard])
	})
}

// stepPlanned is the dense step for a planned model: it visits, in
// ascending id order, only the processors whose queue is non-empty or
// whose generation is planned. Any other processor has nothing to
// consume and, by gen.StepAware's planning contract, generates nothing
// and draws nothing, so skipping it is exact. Completions land in shard
// 0's recorder; the merged Recorder is the same for any split.
func (m *Machine) stepPlanned(planned []int32) {
	for _, p := range planned {
		m.busy[p>>6] |= 1 << (uint(p) & 63)
	}
	rec := &m.recs[0]
	var generated int64
	for i, w := range m.busy {
		for ; w != 0; w &= w - 1 {
			p := i<<6 | bits.TrailingZeros64(w)
			generated += m.stepRange(p, p+1, rec)
			m.noteLoad(p)
		}
	}
	m.gens[0] += generated
}

// stepPlaced routes every generated task through the placer. It runs
// sequentially so the placer may read arbitrary queue lengths.
func (m *Machine) stepPlaced() {
	rec := &m.recs[0]
	for p := 0; p < m.n; p++ {
		if m.down != nil && m.down(p, m.now) {
			continue // crashed: no generation, no consumption
		}
		r := &m.streams[p]
		if m.genOff == nil || !m.genOff(p, m.now) {
			g := m.model.Generate(p, r, m.now)
			m.gens[0] += int64(g)
			for i := 0; i < g; i++ {
				dest := m.placer.Place(m, p, r)
				t := m.newTask(p, r)
				m.wloads[dest] += int64(t.Weight)
				m.queues[dest].PushBack(t)
				m.noteLoad(dest)
			}
		}
		m.consume(p, m.model.WantConsume(p, r, m.now), rec)
		m.noteLoad(p)
	}
}

// Run advances the machine by steps time steps.
func (m *Machine) Run(steps int) {
	for i := 0; i < steps; i++ {
		m.Step()
	}
}
