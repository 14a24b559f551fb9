package node

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"plb/internal/engine"
	"plb/internal/faults"
	"plb/internal/gen"
	"plb/internal/stats"
	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/transport/chaostrans"
	"plb/internal/transport/membus"
	"plb/internal/transport/socktrans"
)

// FleetConfig parameterizes an in-process fleet: n nodes spread over a
// few transport endpoints (daemons-in-miniature), every message
// crossing a real socket or, on the "mem" network, an in-memory bus.
type FleetConfig struct {
	// N is the number of processors.
	N int
	// Endpoints is how many transport endpoints host the N processors
	// (<= 0 derives min(4, N)). Several processors per endpoint is the
	// daemon deployment shape.
	Endpoints int
	// Network is "unix" (default), "tcp" (loopback), or "mem": one
	// in-memory bus delivering every frame at the next step, which makes
	// the fleet a pure function of its configuration.
	Network string
	// Seed derives all fleet randomness.
	Seed uint64
	// Model and Weigher drive each node's local generation and
	// consumption, exactly as on the lockstep sim backend.
	Model   gen.Model
	Weigher gen.Weigher
	// Scale multiplies T = (log log n)^2 in the heavy threshold.
	Scale int
	// Pause is the wall-clock pause per step, giving the sockets time
	// to carry the step's traffic (<= 0 derives 200µs; the mem network
	// needs none and skips it).
	Pause time.Duration
	// Faults, if non-nil, runs the fleet under chaos: the link part of
	// the plan (drop, dup, delay, partitions, stragglers) executes in a
	// chaostrans wrapper on every endpoint, and the process part (crash
	// windows, flapping) drives the supervisor, which kills endpoints —
	// corpse forensics and all — and restarts them as the next
	// incarnation. Churn/drain/redistribute plans are rejected
	// (chaostrans.SplitPlan names why). Enables Ledger.
	Faults *faults.Plan
	// Ledger turns on per-transfer forensic logs fleet-wide so
	// AuditLedger can attribute every unit of imbalance. Implied by
	// Faults.
	Ledger bool
}

// endpoint is one daemon-in-miniature: a transport hosting a contiguous
// block of processor ids, killable and revivable.
type endpoint struct {
	ids    []int32
	listen string // bind address (unix path; tcp pins the first bound port)
	adv    string // advertised address
	up     bool
	// incarnation numbers the lives of this endpoint, 1-based; nodes
	// carry it as their transfer epoch.
	incarnation int
	tr          transport.Transport // what the nodes see (chaos wrap or raw)
	nodes       []*Node
}

// Fleet runs N nodes over one network and exposes the standard
// engine.Runner surface, so `lbsim -backend sockets` reports the same
// columns as every other backend. Over sockets it is genuinely
// concurrent and only statistically reproducible — except the chaos
// schedule (which frames are dropped, when an endpoint dies), which is
// a pure function of the plan seed. The mem network involves no other
// goroutine and no clock, so a fixed configuration replays exactly,
// chaos included.
type Fleet struct {
	cfg   FleetConfig
	eps   []*endpoint
	table map[int32]string // id -> advertised address (revives rebind it)
	bus   *membus.Bus      // the mem network; nil over sockets
	now   int64
	loads []int32
	dir   string

	linkInj *faults.Injector // every endpoint's link fates; nil without a link plan
	procInj *faults.Injector // kill/revive schedule; nil without one

	// corpses are the statuses of killed incarnations, snapshotted at
	// the kill — the supervisor is also the coroner, so in-process
	// chaos audits exactly even mid-run (a real SIGKILL's books die
	// with the process).
	corpses []Status
	// deadStats accumulates killed incarnations' transport counters so
	// Collect never loses traffic to a restart.
	deadStats transport.Stats
	deadKinds [transport.KindMax]int64
}

var _ engine.Runner = (*Fleet)(nil)

// NewFleet boots the endpoints and nodes. Unix fleets socket into a
// private temp directory removed on Close; tcp fleets bind loopback
// ephemeral ports and mesh up through AddPeers once every listener is
// bound.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("node: fleet needs n >= 1, got %d", cfg.N)
	}
	if cfg.Network == "" {
		cfg.Network = "unix"
	}
	if cfg.Network != "unix" && cfg.Network != "tcp" && cfg.Network != "mem" {
		return nil, fmt.Errorf("node: fleet network %q (have unix, tcp, mem)", cfg.Network)
	}
	if cfg.Endpoints <= 0 {
		cfg.Endpoints = minI(4, cfg.N)
	}
	if cfg.Endpoints > cfg.N {
		cfg.Endpoints = cfg.N
	}
	if cfg.Pause <= 0 {
		cfg.Pause = 200 * time.Microsecond
	}
	f := &Fleet{cfg: cfg, loads: make([]int32, cfg.N)}

	if cfg.Faults != nil {
		link, proc, err := chaostrans.SplitPlan(*cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("node: fleet faults: %w", err)
		}
		if link.Seed == 0 {
			link.Seed = cfg.Seed
		}
		if proc.Seed == 0 {
			proc.Seed = cfg.Seed
		}
		if link.Active() {
			if f.linkInj, err = faults.NewInjector(cfg.N, link); err != nil {
				return nil, fmt.Errorf("node: fleet link faults: %w", err)
			}
		}
		if proc.Active() {
			inj, err := faults.NewInjector(cfg.N, proc)
			if err != nil {
				return nil, fmt.Errorf("node: fleet crash schedule: %w", err)
			}
			f.procInj = inj
		}
		f.cfg.Ledger = true
	}

	// Partition [0, N) into contiguous blocks, one per endpoint.
	locals := make([][]int32, cfg.Endpoints)
	for id := 0; id < cfg.N; id++ {
		e := id * cfg.Endpoints / cfg.N
		locals[e] = append(locals[e], int32(id))
	}

	var err error
	switch cfg.Network {
	case "unix":
		if f.dir, err = os.MkdirTemp("", "plb-fleet-*"); err != nil {
			return nil, fmt.Errorf("node: fleet dir: %w", err)
		}
	case "mem":
		f.bus = membus.New(cfg.N)
	}
	listenAddr := func(e int) string {
		if cfg.Network == "unix" {
			return filepath.Join(f.dir, fmt.Sprintf("ep%d.sock", e))
		}
		return "127.0.0.1:0"
	}
	// Unix paths are known before binding, so the full bootstrap table
	// exists up front; tcp ports are ephemeral, so the mesh is wired
	// after every listener is bound.
	f.table = make(map[int32]string)
	if cfg.Network == "unix" {
		for e, ids := range locals {
			for _, id := range ids {
				f.table[id] = listenAddr(e)
			}
		}
	}
	for e, ids := range locals {
		ep := &endpoint{ids: ids, listen: listenAddr(e)}
		f.eps = append(f.eps, ep)
		if err := f.boot(ep, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("node: fleet endpoint %d: %w", e, err)
		}
	}
	if cfg.Network == "tcp" {
		for _, ep := range f.eps {
			for _, id := range ep.ids {
				f.table[id] = ep.adv
			}
		}
		for _, ep := range f.eps {
			ep.tr.(interface{ AddPeers(map[int32]string) }).AddPeers(f.table)
		}
	}
	for _, ep := range f.eps {
		if err := f.populate(ep); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// boot binds an endpoint's transport (and its chaos wrapper) for its
// next incarnation, without nodes. clock is the number of delivery
// windows the fleet has opened so far, where the chaos layer's fault
// clock resumes.
func (f *Fleet) boot(ep *endpoint, clock int64) error {
	var inner transport.Transport
	if f.bus != nil {
		inner = f.bus.View(ep.ids)
	} else {
		sock, err := socktrans.New(socktrans.Config{
			Network: f.cfg.Network, Listen: ep.listen,
			N: f.cfg.N, Local: ep.ids, Peers: f.table,
			Seed: f.cfg.Seed + uint64(ep.incarnation)*0x9e3779b9,
		})
		if err != nil {
			return err
		}
		ep.adv = sock.Advertise()
		if ep.listen == "127.0.0.1:0" {
			// Pin the first bound port so revived incarnations keep the
			// address the rest of the fleet bootstrapped with.
			ep.listen = ep.adv
		}
		inner = sock
	}
	ep.tr = inner
	if f.linkInj != nil {
		ep.tr = chaostrans.Wrap(inner, f.linkInj, clock)
	}
	ep.up = true
	return nil
}

// populate builds the endpoint's nodes for its current incarnation.
func (f *Fleet) populate(ep *endpoint) error {
	ep.incarnation++
	t := stats.PaperT(f.cfg.N)
	scale := maxI(f.cfg.Scale, 1)
	ep.nodes = ep.nodes[:0]
	for _, id := range ep.ids {
		nd, err := New(ep.tr, Config{
			ID: id, N: f.cfg.N, Seed: f.cfg.Seed,
			Model: f.cfg.Model, Weigher: f.cfg.Weigher,
			Heavy: 2 * t * scale,
			Epoch: ep.incarnation, Ledger: f.cfg.Ledger,
		})
		if err != nil {
			return err
		}
		ep.nodes = append(ep.nodes, nd)
	}
	return nil
}

// kill is the supervisor's SIGKILL: snapshot every hosted node's books
// as corpse forensics, fold the incarnation's transport counters into
// the dead totals, and tear the transport down. Peers see connection
// resets (on mem, their frames count as CrashLost) and their failure
// detectors take over.
func (f *Fleet) kill(ep *endpoint) {
	for _, nd := range ep.nodes {
		f.corpses = append(f.corpses, nd.Status())
	}
	s := ep.tr.Stats()
	f.deadStats.Sent += s.Sent
	f.deadStats.Dropped += s.Dropped
	f.deadStats.Duplicated += s.Duplicated
	f.deadStats.Delayed += s.Delayed
	f.deadStats.CrashLost += s.CrashLost
	f.deadStats.GoneLost += s.GoneLost
	if kc, ok := ep.tr.(transport.KindCounter); ok {
		for i, v := range kc.SentByKind() {
			f.deadKinds[i] += v
		}
	}
	ep.tr.Close()
	ep.nodes = nil
	ep.up = false
}

// revive is the supervisor's restart: rebind the same address, rewrap
// the chaos layer on the fleet's fault clock, and boot fresh nodes as
// the next incarnation. Their startup KindJoin volley is what resets
// peers' dedup rings for the restarted epoch. A bind failure (the OS
// can hold a just-closed address briefly) leaves the endpoint down;
// the supervisor retries next step.
func (f *Fleet) revive(ep *endpoint) {
	if f.cfg.Network == "unix" {
		os.Remove(ep.listen)
	}
	// Steps revives before opening this step's delivery window, so
	// f.now-1 windows are open.
	if err := f.boot(ep, f.now-1); err != nil {
		return
	}
	if err := f.populate(ep); err != nil {
		f.kill(ep)
	}
}

// wantDown reports whether the crash schedule has this endpoint dead
// at step: a process hosts all its ids, so any hosted id scheduled
// crashed kills the whole endpoint.
func (f *Fleet) wantDown(ep *endpoint, step int64) bool {
	if f.procInj == nil {
		return false
	}
	for _, id := range ep.ids {
		if f.procInj.Crashed(id, step) {
			return true
		}
	}
	return false
}

// Meta implements engine.Runner. The backend is "sockets" over unix or
// tcp and "mem" over the in-memory bus.
func (f *Fleet) Meta() engine.Meta {
	model := "none"
	if f.cfg.Model != nil {
		model = f.cfg.Model.Name()
	}
	backend := "sockets"
	if f.bus != nil {
		backend = "mem"
	}
	return engine.Meta{
		Backend: backend, Algorithm: "pairwise-sock", Model: model,
		N: f.cfg.N, Seed: f.cfg.Seed,
	}
}

// Now implements engine.Runner.
func (f *Fleet) Now() int64 { return f.now }

// Steps implements engine.Runner: each step runs the supervisor
// (kill/revive on the seeded schedule), opens one delivery window on
// every live endpoint, ticks every live node, and pauses long enough
// for the sockets to carry the traffic (the mem bus carries it at once).
func (f *Fleet) Steps(k int) {
	for ; k > 0; k-- {
		f.now++
		for _, ep := range f.eps {
			down := f.wantDown(ep, f.now)
			switch {
			case ep.up && down:
				f.kill(ep)
			case !ep.up && !down:
				f.revive(ep)
			}
		}
		// Models needing a global per-step plan (the adversarial
		// family) get it here: the fleet is the one socket deployment
		// with a fleet-wide view. Down processors report zero load —
		// the adversary sees what a crashed processor's peers see.
		if sa, ok := f.cfg.Model.(gen.StepAware); ok {
			sa.BeginStep(f.now, f.Loads())
		}
		for _, ep := range f.eps {
			if ep.up {
				ep.tr.Deliver()
			}
		}
		for _, ep := range f.eps {
			for _, nd := range ep.nodes {
				nd.Tick()
			}
		}
		if f.bus == nil {
			time.Sleep(f.cfg.Pause)
		}
	}
}

// Loads implements engine.Runner. Down processors report zero — their
// queue died with them (and is in the corpse forensics).
func (f *Fleet) Loads() []int32 {
	for i := range f.loads {
		f.loads[i] = 0
	}
	for _, ep := range f.eps {
		for _, nd := range ep.nodes {
			f.loads[nd.ID()] = int32(nd.Load())
		}
	}
	return f.loads
}

// node returns the live node hosting id, or nil while its endpoint is
// down.
func (f *Fleet) node(id int32) *Node {
	for _, ep := range f.eps {
		for _, nd := range ep.nodes {
			if nd.ID() == id {
				return nd
			}
		}
	}
	return nil
}

// Down reports whether id's endpoint is currently killed.
func (f *Fleet) Down(id int32) bool { return f.node(id) == nil }

// SuspectCount counts live nodes on other endpoints whose failure
// detector currently suspects id — the fleet-side detection signal a
// chaos experiment measures latency with.
func (f *Fleet) SuspectCount(id int32) int {
	count := 0
	for _, ep := range f.eps {
		hosts := false
		for _, e := range ep.ids {
			if e == id {
				hosts = true
			}
		}
		if hosts {
			continue
		}
		for _, nd := range ep.nodes {
			if nd.Suspects(id) {
				count++
			}
		}
	}
	return count
}

// Restarts is the total number of supervisor revives so far.
func (f *Fleet) Restarts() int {
	r := 0
	for _, ep := range f.eps {
		r += ep.incarnation - 1
	}
	return r
}

// Collect implements engine.Runner: node counters summed (corpses
// included — a restart must not lose completed work from the totals),
// transport counters aggregated across live and dead incarnations,
// recorders merged exactly.
func (f *Fleet) Collect() engine.Metrics {
	m := engine.Metrics{Steps: f.now}
	var rec task.Recorder
	var inflight int64
	for _, ep := range f.eps {
		for _, nd := range ep.nodes {
			g, inj, comp, queued, inf, moved, actions := nd.Totals()
			m.Generated += g + inj
			m.Completed += comp
			m.TotalLoad += queued
			inflight += inf
			m.TasksMoved += moved
			m.BalanceActions += actions
			if queued > m.MaxLoad {
				m.MaxLoad = queued
			}
			rec.Merge(nd.Recorder())
			m.AddExtra("xfer_acked", nd.acked)
			m.AddExtra("xfer_retries", nd.retries)
			m.AddExtra("xfer_requeued", nd.requeued)
			m.AddExtra("xfer_dup_dropped", nd.dupDropped)
		}
	}
	for i := range f.corpses {
		st := &f.corpses[i]
		m.Generated += st.Generated + st.Injected
		m.Completed += st.Completed
		rec.Merge(&st.Recorder)
		m.AddExtra("xfer_acked", st.Acked)
		m.AddExtra("xfer_retries", st.Retries)
		m.AddExtra("xfer_requeued", st.Requeued)
		m.AddExtra("xfer_dup_dropped", st.DupDropped)
	}
	st := f.deadStats
	kinds := f.deadKinds
	for _, ep := range f.eps {
		if !ep.up {
			continue
		}
		s := ep.tr.Stats()
		st.Sent += s.Sent
		st.Dropped += s.Dropped
		st.Duplicated += s.Duplicated
		st.Delayed += s.Delayed
		st.CrashLost += s.CrashLost
		st.GoneLost += s.GoneLost
		if kc, ok := ep.tr.(transport.KindCounter); ok {
			for i, v := range kc.SentByKind() {
				kinds[i] += v
			}
		}
	}
	m.Messages = st.Sent
	m.Drops = st.Dropped
	m.AddExtra("inflight", inflight)
	m.AddExtra("endpoints", int64(len(f.eps)))
	m.AddExtra("net_sent", st.Sent)
	if f.cfg.Faults != nil {
		m.AddExtra("net_dropped", st.Dropped)
		m.AddExtra("net_duplicated", st.Duplicated)
		m.AddExtra("net_delayed", st.Delayed)
		m.AddExtra("net_crash_lost", st.CrashLost)
		m.AddExtra("restarts", int64(f.Restarts()))
		m.AddExtra("corpses", int64(len(f.corpses)))
		in, out, led := f.AuditLedger()
		m.AddExtra("imbalance", in-out)
		m.AddExtra("ledger_crash_lost", led.CrashLost)
		m.AddExtra("ledger_stale_dup_lost", led.StaleDupLost)
		m.AddExtra("ledger_dup_delivered", led.DupDelivered)
		m.AddExtra("ledger_requeue_dup", led.RequeueDup)
		m.AddExtra("ledger_net", led.Net())
	}
	for k := transport.Kind(1); k < transport.KindMax; k++ {
		if kinds[k] > 0 {
			m.AddExtra("sent_"+k.String(), kinds[k])
		}
	}
	sum := rec.Summary()
	m.Tasks = &sum
	return m
}

// Drain puts every live node into drain mode (tests drive this to
// assert end-of-run conservation with empty queues).
func (f *Fleet) Drain() {
	for _, ep := range f.eps {
		for _, nd := range ep.nodes {
			nd.Drain()
		}
	}
}

// Audit returns the two sides of the conservation invariant over the
// live fleet: Σ generated + Σ injected versus Σ completed + Σ queued +
// Σ inflight. On a fault-free run the sides are equal at quiescence;
// under chaos the signed difference must equal AuditLedger's Net.
func (f *Fleet) Audit() (in, out int64) {
	for _, ep := range f.eps {
		for _, nd := range ep.nodes {
			g, inj, comp, queued, inf, _, _ := nd.Totals()
			in += g + inj
			out += comp + queued + inf
		}
	}
	return in, out
}

// Statuses snapshots every live node plus the corpse forensics of
// every killed incarnation.
func (f *Fleet) Statuses() (live, corpses []Status) {
	for _, ep := range f.eps {
		for _, nd := range ep.nodes {
			live = append(live, nd.Status())
		}
	}
	return live, f.corpses
}

// AuditLedger runs the fleet-wide conservation audit: at a settled
// point, in − out == led.Net() exactly — every unit of imbalance chaos
// caused is attributed to a named ledger row.
func (f *Fleet) AuditLedger() (in, out int64, led Ledger) {
	live, corpses := f.Statuses()
	return AuditLedger(live, corpses)
}

// Settle pumps the fleet until it is auditable: every endpoint alive
// and no live transfer awaiting acknowledgment — twice in a row, so
// the audit is not a lucky instant. Returns false if the fleet does
// not settle within maxSteps (the caller's test should fail with the
// audit it then takes).
//
// Chaos-held frames and frames sitting in socket buffers do NOT block
// settling: nothing applies outside a Steps call, so once every
// outbound block is terminal (acked or requeued) the equation is
// exact at this instant — a delayed duplicate that would have landed
// on the next step is a fate that never happened. Waiting for held
// frames to drain would never finish under a perpetual delay plan
// (heartbeats keep drawing delay fates forever).
func (f *Fleet) Settle(maxSteps int) bool {
	stable := 0
	for used := 0; used < maxSteps; used += 5 {
		f.Steps(5)
		if f.settled() {
			stable++
			if stable >= 2 {
				return true
			}
		} else {
			stable = 0
		}
	}
	return false
}

func (f *Fleet) settled() bool {
	for _, ep := range f.eps {
		if !ep.up {
			return false
		}
		for _, nd := range ep.nodes {
			if nd.Status().Inflight != 0 {
				return false
			}
		}
	}
	return true
}

// PeerTable returns the id -> address bootstrap table a client
// transport needs to reach every processor in this fleet.
func (f *Fleet) PeerTable() map[int32]string {
	table := make(map[int32]string, len(f.table))
	for id, addr := range f.table {
		table[id] = addr
	}
	return table
}

// Close shuts the endpoints down and removes the socket directory, if
// any.
func (f *Fleet) Close() error {
	for _, ep := range f.eps {
		if ep.up {
			ep.tr.Close()
			ep.up = false
		}
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return nil
}
