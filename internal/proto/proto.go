// Package proto is the fully distributed implementation of the
// paper's balancing algorithm: every processor is a state machine that
// exchanges real messages over a unit-latency synchronous network,
// following the pseudocode of Figure 2.
//
// The balancer runs on one view of every id of the in-memory bus
// (internal/transport/membus); the golden digests pin that
// configuration. Under a fault plan a chaostrans wrapper draws every
// frame's link fate, and the bus empties the inboxes of crashed or
// absent processors at delivery. Real networks are the node runtime's
// job (internal/node).
//
// internal/core implements the same algorithm with the collision games
// evaluated atomically at phase starts and communication merely
// accounted; proto spreads the protocol over actual machine steps —
// queries travel one step, accepts travel back the next, id messages
// reach the tree root a step later, and the transfer happens only when
// the root has heard from a light processor. Load generation continues
// underneath, so classification (taken at the phase start, as the
// paper specifies) is genuinely stale by the time tasks move.
//
// Phase schedule (offsets within a phase; R = rounds per collision
// game, L = tree levels):
//
//	offset 0:             classify heavy/light; heavy processors
//	                      become searchers and send their a queries
//	level l in [0, L):    starts at S_l = l(2R+1)
//	  S_l + 2r + 1:       targets process queries (accept or collide);
//	                      applicative acceptors send id to the boss
//	  S_l + 2r + 2:       searchers tally accepts; unsatisfied ones
//	                      re-query the targets that have not accepted
//	  S_l + 2R:           satisfied searchers whose whole accepted
//	                      group is non-applicative send forward
//	                      messages (the sibling rule, via the parent)
//	offset L(2R+1):       roots process collected id messages and move
//	                      TransferAmount tasks to the chosen partner
//
// (The offsets above describe the intended cadence; the state machines
// actually handle every message kind at every offset, so traffic that
// arrives off-cadence — e.g. a forwarded searcher's first volley — is
// processed rather than lost. The level boundaries only mark game
// resets and the forward/retry hand-off.)
//
// With Config.PreRound (the Section 4.3 modification) the schedule is
// prefixed by two steps: probes fly at offset 0, applicative targets
// hit by exactly one probe reply at offset 1, and matched probers
// transfer at offset 2 while the rest open their trees.
//
// The phase length must be at least the schedule length
// (Config.ScheduleSteps); with the paper's T = (log log n)^2 and
// PhaseLen = T/16 that corresponds to the large-n regime, so
// DefaultConfig derives workable laptop constants from the schedule
// instead (T = 16 * PhaseLen).
//
// The handlers are grouped per concern: collision.go holds the phase
// schedule and collision games, transfers.go the acknowledged task
// transfers, membership.go the elastic-membership sweep, detection.go
// the failure-detector plumbing.
package proto

import (
	"fmt"

	"plb/internal/collision"
	"plb/internal/core"
	"plb/internal/detect"
	"plb/internal/engine"
	"plb/internal/faults"
	"plb/internal/membership"
	"plb/internal/sim"
	"plb/internal/transport"
	"plb/internal/transport/chaostrans"
	"plb/internal/transport/membus"
	"plb/internal/xrand"
)

// Config parameterizes the distributed balancer.
type Config struct {
	// HeavyThreshold makes a processor heavy at a phase start.
	HeavyThreshold int
	// LightThreshold (inclusive) makes a processor light.
	LightThreshold int
	// TransferAmount is the block size moved per balancing action.
	TransferAmount int
	// PhaseLen is the phase length in machine steps; must be at least
	// ScheduleLen(Levels, Rounds).
	PhaseLen int
	// Levels is the number of balancing-request tree levels L.
	Levels int
	// Rounds is the number of collision-game rounds R per level.
	Rounds int
	// Collision holds the (a, b, c) constants; zero means Lemma 1's
	// (5, 2, 1).
	Collision collision.Params
	// Seed derives the balancer's randomness.
	Seed uint64
	// OnPhase, if non-nil, receives each completed phase's stats.
	OnPhase func(core.PhaseStats)
	// PreRound enables the Section 4.3 modification in distributed
	// form: at the phase start every heavy processor sends one probe
	// to a random processor; a light, unreserved processor hit by
	// exactly one probe replies, and the pair balances one step later
	// — only the unmatched heavies start query trees. Costs one extra
	// schedule step (accounted for by Validate).
	PreRound bool
	// Faults, if non-nil and active, injects the plan's faults into
	// the run: the network drops/duplicates/delays messages (a lossy:p
	// plan is plain message loss) and the plan's crash schedule
	// freezes processors (no generation, no consumption, no protocol
	// participation; messages to them are discarded). A plan seed of
	// zero inherits Seed. With Faults nil the balancer is
	// byte-identical to the fault-free implementation. An active plan
	// bounds a searcher's re-query volleys per collision game to
	// Rounds+2, so a searcher whose accepts keep vanishing stops
	// flooding a lossy network; fault-free runs keep the paper's
	// unbounded retry-until-level-end cadence.
	Faults *faults.Plan
	// Detect overrides the failure-detector tuning used under an active
	// fault plan; zero fields derive from the schedule (see
	// detect.DefaultConfig) and a zero Seed derives from Seed. Ignored
	// with Faults nil — the fault-free protocol needs no detector.
	Detect detect.Config
}

// Acknowledged task transfers (active fault plans only): the first
// attempt's ack deadline in steps (one network round trip plus slack),
// doubled per retry, and the send attempts per block before the sender
// gives up and keeps the tasks (they never left its queue).
const (
	xferTimeout  = 4
	xferAttempts = 4
)

// ScheduleLen returns the number of machine steps the distributed
// protocol needs per phase for L levels and R rounds per level
// (without the pre-round).
func ScheduleLen(levels, rounds int) int { return levels*(2*rounds+1) + 1 }

// ScheduleSteps returns the schedule length of this configuration,
// including the two extra steps of the pre-round when enabled.
func (c Config) ScheduleSteps() int {
	s := ScheduleLen(c.Levels, c.Rounds)
	if c.PreRound {
		s += 2
	}
	return s
}

// DefaultConfig derives laptop-scale constants for n processors: one
// tree level, the Lemma 1 round budget, the minimal phase that fits
// the schedule, and thresholds from T = 16 * PhaseLen (preserving the
// paper's T/2, T/16, T/4 ratios).
func DefaultConfig(n int) Config {
	p := collision.Lemma1Params()
	rounds := p.DefaultRounds(n)
	levels := 1
	phase := ScheduleLen(levels, rounds)
	t := 16 * phase
	return Config{
		HeavyThreshold: t / 2,
		LightThreshold: t / 16,
		TransferAmount: t / 4,
		PhaseLen:       phase,
		Levels:         levels,
		Rounds:         rounds,
		Collision:      p,
		Seed:           1,
	}
}

// Validate checks the configuration against n processors.
func (c Config) Validate(n int) error {
	if c.HeavyThreshold <= c.LightThreshold {
		return fmt.Errorf("proto: heavy threshold %d must exceed light threshold %d",
			c.HeavyThreshold, c.LightThreshold)
	}
	if c.LightThreshold < 0 {
		return fmt.Errorf("proto: light threshold %d negative", c.LightThreshold)
	}
	if c.TransferAmount < 1 || c.TransferAmount > c.HeavyThreshold {
		return fmt.Errorf("proto: transfer amount %d out of [1, heavy=%d]",
			c.TransferAmount, c.HeavyThreshold)
	}
	if c.Levels < 1 || c.Rounds < 1 {
		return fmt.Errorf("proto: need levels >= 1 and rounds >= 1, got %d, %d", c.Levels, c.Rounds)
	}
	if min := c.ScheduleSteps(); c.PhaseLen < min {
		return fmt.Errorf("proto: phase length %d shorter than protocol schedule %d", c.PhaseLen, min)
	}
	return c.Collision.Validate(n)
}

// detectConfig resolves the failure-detector tuning: schedule-derived
// defaults, overridden field-wise by Config.Detect, seeded from the run
// seed when no explicit detector seed is given.
func (c Config) detectConfig() detect.Config {
	dc := detect.DefaultConfig(c.PhaseLen).Merge(c.Detect)
	if dc.Seed == 0 {
		dc.Seed = c.Seed ^ 0xde7ec7
	}
	return dc
}

// procState is one processor's protocol variables (Figure 2's arrays,
// held struct-of-records here).
type procState struct {
	lightAt   bool  // light at phase start
	assigned  bool  // reserved as a balancing partner this phase
	searching bool  // active tree node this level
	boss      int32 // root of the tree the processor works for

	// As searcher: the a random targets, which of them accepted, and
	// the accept tally (targets and applicative flags, accept order).
	choices    []int32
	acceptedBy []bool
	accFrom    []int32
	accApp     []bool
	satisfied  bool

	// As target: queries accepted in the current collision game.
	gameAccepts int8
	// lastSent is the machine step of the last query volley (queries
	// need two steps for the accept to return; re-sending sooner would
	// only duplicate traffic and trip the collision cap).
	lastSent int64

	// As root: light processors that sent id messages (arrival order).
	candidates []int32
	matched    bool

	// Fault hardening: who holds this processor's reservation (so it
	// can be released if that boss is suspected down) and how many
	// query volleys the current game has cost (the bounded-retry
	// counter).
	reservedFor int32
	volleys     int16

	// Acknowledged-transfer state (fault runs only). As sender: the one
	// outstanding block — tasks stay in the local queue until the
	// recipient applies the transfer, so a timeout "re-queue" is simply
	// giving up on the send. As receiver: a ring of recently applied
	// transfer sequence numbers, so a retry whose ack was lost is
	// re-acked instead of applied twice. The ring is sized by
	// detect.Config.XferDedup (default 8; see that field for the
	// sizing bound) and allocated only under a fault plan.
	xferOpen   bool
	xferSeq    int32
	xferTo     int32
	xferAmt    int32
	xferSentAt int64
	xferTries  int8
	seen       []int32
	seenIdx    int16

	// Elastic membership (churn runs only): whether this slot's
	// draining has been announced to the fleet, and whether the open
	// transfer is a drain hand-off block (counted into mem_handoff
	// when its ack lands).
	drainAnnounced bool
	xferDrain      bool
}

// Balancer is the distributed implementation; it satisfies
// sim.Balancer.
type Balancer struct {
	cfg Config
	n   int
	rng *xrand.Stream
	tr  transport.Transport
	// step counts the delivery windows opened so far: the fault clock,
	// one ahead of the machine step during a balancer step.
	step int64

	procs     []procState
	heavies   []int32 // roots of this phase
	ps        core.PhaseStats
	sentAt    int64 // transport sends at phase start
	phaseOpen bool

	totalPhases  int64
	totalMatched int64
	totalHeavy   int64

	// Fault-injection state (inj nil ⇒ every hardening path below is
	// skipped and the balancer behaves exactly as the fault-free
	// implementation).
	inj        *faults.Injector
	maxRetries int // re-query bound per game: Rounds+2 under a plan, 0 (unlimited) without
	scatterRng *xrand.Stream
	prevDown   []bool // crash state last step, for recovery detection
	accounted  int64  // phase messages already pushed into sim metrics
	dropMark   int64  // drops+crash losses already pushed into metrics

	// Oracle-free failure detection (fault runs only). det is the only
	// liveness authority protocol decisions consult; mach mirrors the
	// installed machine so handlers can ask the physics question "is
	// this processor frozen right now" without touching the injector.
	det  *detect.Detector
	mach *sim.Machine

	// Acknowledged-transfer plumbing.
	xferSeq   int32
	xferDedup int

	// Elastic membership (nil unless the fault plan schedules churn or
	// a drain batch). mem is the authoritative view layer every
	// population-dependent decision draws from; memRng drives the
	// protocol-side random choices (heartbeat targets within a view,
	// rebalance partners) on its own stream so churn runs stay
	// deterministic without disturbing the static-population streams.
	mem            *membership.Tracker
	memRng         *xrand.Stream
	memScratch     []int32
	admitAfter     int64     // volley evidence a sponsor waits for before admitting
	joinSponsor    []int32   // per-joiner sponsor id; -1 = no request heard yet
	joinFirstHeard []int64   // step the sponsor first heard the joiner
	joinSeeds      [][]int32 // per-joiner bootstrap peers (first = sponsor)
	rebalPending   []bool    // view advanced; owe a rebalance check
	memRebalances  int64
	memHandoff     int64

	// Ground-truth comparison (the one place the injector's view is
	// read, via the machine's crash oracle): per-processor crash-window
	// bookkeeping to score the detector, never to drive the protocol.
	prevSuspect []bool
	crashedAt   []int64 // -1 when up; else the step the window opened
	winDetected []bool  // current crash window already detected

	// Extension counters surfaced through engine.Metrics.Extra.
	hbSent          int64
	xferRetries     int64
	xferRequeued    int64
	xferAcked       int64
	xferDup         int64
	xferApplied     int64
	detLatencySum   int64
	detDetections   int64
	falseSuspicions int64
	missedWindows   int64
}

var _ sim.Balancer = (*Balancer)(nil)

// New constructs the distributed balancer for n processors.
func New(n int, cfg Config) (*Balancer, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	b := &Balancer{cfg: cfg, n: n}
	if cfg.Faults != nil {
		plan := *cfg.Faults
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		if plan.Active() {
			inj, err := faults.NewInjector(n, plan)
			if err != nil {
				return nil, err
			}
			b.inj = inj
			b.maxRetries = cfg.Rounds + 2
			dc := cfg.detectConfig()
			if err := dc.Validate(); err != nil {
				return nil, err
			}
			b.xferDedup = dc.XferDedup
			if b.xferDedup == 0 {
				b.xferDedup = 8
			}
		}
	}
	return b, nil
}

// Name implements sim.Balancer.
func (b *Balancer) Name() string {
	return fmt.Sprintf("bfm98-dist(phase=%d,L=%d,R=%d)", b.cfg.PhaseLen, b.cfg.Levels, b.cfg.Rounds)
}

// Config returns the configuration in use.
func (b *Balancer) Config() Config { return b.cfg }

// Totals returns (phases completed, heavy->light matches performed).
func (b *Balancer) Totals() (phases, matched int64) {
	return b.totalPhases, b.totalMatched
}

// BackendName implements sim.BackendNamer: a machine carrying this
// balancer reports itself as the "proto" backend through engine.Runner.
func (b *Balancer) BackendName() string { return "proto" }

// ExtendMetrics implements sim.MetricsExtender, contributing the
// distributed protocol's extension counters to the unified metrics:
// completed phases, classified-heavy roots, performed matches, and the
// transport's delivery counters.
func (b *Balancer) ExtendMetrics(m *engine.Metrics) {
	m.AddExtra("phases", b.totalPhases)
	m.AddExtra("heavy", b.totalHeavy)
	m.AddExtra("matched", b.totalMatched)
	if b.tr != nil {
		st := b.tr.Stats()
		m.AddExtra("net_sent", st.Sent)
		if b.inj != nil {
			// Faulted runs surface every link counter unconditionally so
			// degraded runs are diagnosable from the output alone.
			m.AddExtra("net_dropped", st.Dropped)
			m.AddExtra("net_duplicated", st.Duplicated)
			m.AddExtra("net_delayed", st.Delayed)
			m.AddExtra("net_crash_lost", st.CrashLost)
			// Per-kind send mix, keyed by Kind.String() names, so fault
			// output says which traffic class paid for the degradation.
			if kc, ok := b.tr.(transport.KindCounter); ok {
				for k, c := range kc.SentByKind() {
					if c > 0 {
						m.AddExtra("sent_"+transport.Kind(k).String(), c)
					}
				}
			}
		} else {
			if st.Duplicated > 0 {
				m.AddExtra("net_duplicated", st.Duplicated)
			}
			if st.Delayed > 0 {
				m.AddExtra("net_delayed", st.Delayed)
			}
		}
	}
	if b.det != nil {
		m.AddExtra("det_suspicions", b.det.Suspicions())
		m.AddExtra("det_false_suspicions", b.falseSuspicions)
		m.AddExtra("det_readmissions", b.det.Readmissions())
		m.AddExtra("det_detections", b.detDetections)
		m.AddExtra("det_latency_sum", b.detLatencySum)
		m.AddExtra("det_missed_windows", b.missedWindows)
		m.AddExtra("hb_sent", b.hbSent)
		m.AddExtra("xfer_acked", b.xferAcked)
		m.AddExtra("xfer_retries", b.xferRetries)
		m.AddExtra("xfer_requeued", b.xferRequeued)
		m.AddExtra("xfer_dup_dropped", b.xferDup)
	}
	if b.mem != nil {
		m.AddExtra("mem_epoch", b.mem.Epoch())
		m.AddExtra("mem_joins", b.mem.Joins())
		m.AddExtra("mem_admits", b.mem.Admits())
		m.AddExtra("mem_drains", b.mem.Drains())
		m.AddExtra("mem_departs", b.mem.Departs())
		m.AddExtra("mem_active", int64(b.mem.ActiveCount()))
		m.AddExtra("mem_pool", int64(b.mem.PoolSize()))
		m.AddExtra("mem_rebalances", b.memRebalances)
		m.AddExtra("mem_handoff", b.memHandoff)
		m.AddExtra("mem_absent_lost", b.tr.Stats().GoneLost)
	}
}

// Init implements sim.Balancer.
func (b *Balancer) Init(m *sim.Machine) {
	if m.N() != b.n {
		panic(fmt.Sprintf("proto: balancer built for n=%d installed on n=%d", b.n, m.N()))
	}
	b.rng = xrand.New(b.cfg.Seed ^ 0xd157)
	bus := membus.New(b.n)
	ids := make([]int32, b.n)
	for p := range ids {
		ids[p] = int32(p)
	}
	b.tr = bus.View(ids)
	if b.inj != nil {
		// The wrapper draws fates from the whole plan, so frames to or
		// from a crashed processor drop at send; the check discards
		// frames already in flight when their recipient crashed or left.
		b.tr = chaostrans.Wrap(b.tr, b.inj, 0)
		bus.SetCheck(func(p int32, win int64) membus.Loss {
			switch {
			case b.inj.Crashed(p, win):
				return membus.CrashLost
			case b.mem != nil && b.mem.Gone(p):
				return membus.GoneLost
			}
			return membus.Kept
		})
		// The fault clock is the transport step, which runs one ahead of
		// the machine step during a balancer step (Deliver happens
		// first); DownOracle translates so schedules mean the same
		// instant in both. This oracle is the simulated *physics* — a
		// frozen processor executes nothing — and the ground truth the
		// detector is scored against; protocol decisions never read it.
		m.SetDown(b.inj.DownOracle(1))
		b.mach = m
		b.scatterRng = xrand.New(b.cfg.Seed ^ 0x5ca7)
		b.prevDown = make([]bool, b.n)
		det, err := detect.New(b.n, b.cfg.detectConfig())
		if err != nil {
			panic(err) // New validated the config already
		}
		b.det = det
		b.prevSuspect = make([]bool, b.n)
		b.crashedAt = make([]int64, b.n)
		for p := range b.crashedAt {
			b.crashedAt[p] = -1
		}
		b.winDetected = make([]bool, b.n)
		if b.inj.Plan().MembershipActive() {
			mem, err := membership.New(b.n, b.inj.ChurnSpare(), b.cfg.Seed^0x3e3b)
			if err != nil {
				panic(err) // ChurnSpare keeps the active floor; n was validated
			}
			b.mem = mem
			b.memRng = xrand.New(b.cfg.Seed ^ 0x33a7)
			b.memScratch = make([]int32, 0, b.n)
			b.joinSponsor = make([]int32, b.n)
			for p := range b.joinSponsor {
				b.joinSponsor[p] = -1
			}
			b.joinFirstHeard = make([]int64, b.n)
			b.joinSeeds = make([][]int32, b.n)
			b.rebalPending = make([]bool, b.n)
			b.admitAfter = 2*det.Config().HeartbeatEvery + 3
			// Physics composes: a processor executes nothing when it is
			// crashed by the plan OR outside the membership; a present
			// joiner or drainer keeps consuming but generates nothing.
			crash := b.inj.DownOracle(1)
			m.SetDown(func(p int, now int64) bool {
				return crash(p, now) || b.mem.Gone(int32(p))
			})
			m.SetGenOff(func(p int, now int64) bool { return b.mem.GenOff(int32(p)) })
		}
	}
	b.procs = make([]procState, b.n)
	for p := range b.procs {
		b.procs[p].choices = make([]int32, b.cfg.Collision.A)
		b.procs[p].acceptedBy = make([]bool, b.cfg.Collision.A)
		if b.inj != nil {
			b.procs[p].seen = make([]int32, b.xferDedup)
		}
	}
}

// Step implements sim.Balancer: one machine step of the distributed
// protocol. Every offset, all processors handle whatever arrived —
// queries (accept or collide), accepts (tally, re-query holdouts),
// forwards (join the search), ids (bank at the root); the level
// boundaries only mark game resets and the forward/retry hand-off.
func (b *Balancer) Step(m *sim.Machine) {
	offset := int(m.Now() % int64(b.cfg.PhaseLen))
	b.tr.Deliver()
	b.step++
	if b.inj != nil {
		b.observeTraffic(m)
		b.faultSweep(m)
		if b.mem != nil {
			b.memSweep(m)
		}
	}

	pre := 0
	if b.cfg.PreRound {
		pre = 2
	}
	levelSpan := 2*b.cfg.Rounds + 1
	end := pre + b.cfg.Levels*levelSpan
	switch {
	case offset == 0:
		b.beginPhase(m)
	case pre == 2 && offset == 1:
		// Probes arrive: applicative processors hit by exactly one
		// reply with an id message.
		b.processProbes()
	case pre == 2 && offset == 2:
		// Probe replies arrive: matched probers transfer now; the
		// rest start their query trees.
		b.collectIDs(m.Now())
		b.preSettle(m)
	case offset <= end:
		b.processQueries()
		b.tallyAccepts(m.Now())
		b.collectIDs(m.Now())
		if rel := offset - pre; rel%levelSpan == 0 {
			b.levelWrapUp(rel/levelSpan-1, m.Now())
		}
		if offset == end {
			b.settle(m)
		}
	default:
		// Idle tail of the phase: fault-free runs have no traffic here
		// (stray messages are dropped by Deliver), but under injection
		// delayed id messages keep trickling in — keep banking them and
		// let roots that only now heard from a light processor settle
		// late rather than abandon the phase.
		if b.inj != nil {
			b.collectIDs(m.Now())
			b.lateSettle(m)
		}
	}
}
