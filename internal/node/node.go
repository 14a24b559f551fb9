// Package node is the process-level runtime of the protocol: one Node
// per hosted processor, driven by ticks instead of lockstep steps,
// speaking transport.Message over any transport.Transport — the socket
// transports (internal/transport/socktrans) for daemons and socket
// fleets, or the Fleet's in-memory bus, on which a whole fleet steps on
// one goroutine and replays exactly from its seed.
//
// A Node owns a FIFO task queue and, each tick, drains its inbox,
// generates and consumes work, and balances by threshold: when its
// load reaches Heavy it probes a random alive peer (KindQuery carrying
// its load, answered by KindID carrying the peer's), and ships half
// the surplus as an acknowledged transfer — KindTransfer with the task
// block aboard, retried until KindTransferAck returns, deduplicated at
// the receiver by (sender, sequence). Liveness is inferred from
// traffic through the deadline detector (internal/detect): any inbound
// frame is evidence, and suspected peers are neither probed nor shipped
// to. KindHeartbeat keeps quiet links warm; its target is a uniform
// active peer, suspected ones included, because the heartbeat is how a
// falsely suspected peer hears from us again — a node that stopped
// heartbeating the peers it suspects would soon be suspected by them
// in turn, and neither would send to the other again. Membership is the
// KindJoin / KindDrain / KindLeave volley vocabulary the simulated
// protocol uses, re-pointed at real processes: a starting daemon
// announces itself, a draining one ships its queue away, waits for the
// acks, lingers long enough to re-ack stragglers, and broadcasts
// KindLeave on the way out.
//
// Task conservation is the audit surface: every task a node has seen
// was generated locally or injected by the load generator (a transfer
// from LoadGenID, counted once — duplicates are absorbed by the dedup
// ring), and ends completed, queued, or riding an unacknowledged
// transfer. Σ generated + Σ injected == Σ completed + Σ queued +
// Σ inflight holds across a fleet as long as no process dies uncleanly
// and no dedup ring misfires; the daemon smoke test asserts it to the
// task across a drain-and-restart cycle. Under chaos the equation can
// move — but never unaccountably: with Config.Ledger on, every node
// keeps a forensic log of its transfers (outbound blocks keyed by the
// incarnation epoch each transfer carries on the wire, inbound blocks
// by sender/epoch/seq with apply and dup-drop counts), and
// ComputeLedger joins the logs fleet-wide to attribute every unit of
// imbalance to a named row: requeue-after-delivery, duplicate
// application past the dedup ring, a stale ring eating a reused seq,
// or tasks that died with a killed incarnation. Chaos harnesses assert
// imbalance == ledger exactly instead of tolerating a surplus.
package node

import (
	"encoding/json"
	"fmt"

	"plb/internal/deque"
	"plb/internal/detect"
	"plb/internal/gen"
	"plb/internal/stats"
	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/xrand"
)

// LoadGenID is the processor id the load-generator client sends from:
// outside the fleet's id space, so transfers from it count as injected
// work rather than balanced work.
const LoadGenID int32 = -1

// Config parameterizes one Node.
type Config struct {
	// ID is the processor id this node runs; N the fleet id space.
	ID int32
	N  int
	// Seed derives the node's private randomness.
	Seed uint64
	// Model, if non-nil, generates and consumes work locally (the
	// in-process fleet). Nil means no local generation — arrivals come
	// from the load generator — and consumption runs at serveRate.
	Model gen.Model
	// Weigher assigns service weights to locally generated tasks (nil
	// = unit weight).
	Weigher gen.Weigher
	// Heavy is the load at which the node starts balancing (<= 0
	// derives 2*T, T = (log log n)^2).
	Heavy int
	// Detect overrides the failure-detector tuning (zero fields keep
	// the schedule-derived defaults).
	Detect detect.Config
	// Epoch is this incarnation's epoch number, carried on every
	// outbound transfer so receivers and the conservation ledger can
	// tell a restarted sender's reused sequence numbers from the
	// previous incarnation's (<= 0 derives 1; a supervisor restarts a
	// node with the next epoch).
	Epoch int
	// Ledger turns on the per-transfer forensic log ComputeLedger
	// joins (chaos harnesses and fleets). It grows with the transfer
	// count, so it stays off by default for long-lived daemons.
	Ledger bool
}

// Fixed node tuning: serveRate is the consumption budget per tick when
// Config.Model is nil; maxShip caps the tasks shipped per transfer;
// retryAfter is the ticks before an unacknowledged transfer or probe is
// retried; xferAttempts bounds the sends of one transfer before its
// block is requeued locally.
const (
	serveRate    = 1
	maxShip      = 64
	retryAfter   = 8
	xferAttempts = 5
)

// pendingXfer is one unacknowledged outbound transfer.
type pendingXfer struct {
	to       int32
	tasks    []task.Task
	sentAt   int64
	attempts int
}

// dedupLen sizes the per-sender ring of applied transfer sequence
// numbers, so a retried block is re-acknowledged, not re-applied. It
// must comfortably exceed the blocks a sender can deliver between an
// original send and its retransmit — a load generator ships one block
// per processor per tick and retries after ~16 ticks, so a ring this
// deep only evicts a seq once an ack has been outstanding for hundreds
// of ticks (a peer that slow is treated as the documented
// at-least-once degradation, not the common path).
const dedupLen = 512

// dedupRing is one sender's window of the last dedupLen transfer
// sequence numbers applied. The window grows on demand and wraps at
// pos once full: there is one ring per (receiver, sender) pair, and
// most pairs see a handful of transfers, so a ring costs what its
// sender used instead of a full window up front. maxSeq bounds every
// entry (-1 before the first), so a seq above it is new without a scan
// — the common case, since a sender's seqs only grow within an
// incarnation and its KindJoin deletes the ring.
type dedupRing struct {
	seqs   []int32
	pos    int
	maxSeq int32
}

func newDedupRing() *dedupRing { return &dedupRing{maxSeq: -1} }

// has reports whether seq is in the window.
func (r *dedupRing) has(seq int32) bool {
	if seq > r.maxSeq {
		return false
	}
	for _, s := range r.seqs {
		if s == seq {
			return true
		}
	}
	return false
}

// add records seq, evicting the oldest entry once the window is full.
func (r *dedupRing) add(seq int32) {
	if len(r.seqs) < dedupLen {
		r.seqs = append(r.seqs, seq)
	} else {
		r.seqs[r.pos] = seq
		r.pos = (r.pos + 1) % dedupLen
	}
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
}

// Node is one processor's runtime.
type Node struct {
	cfg   Config
	tr    transport.Transport
	rng   *xrand.Stream
	det   *detect.Detector
	queue deque.Deque[task.Task]
	rec   task.Recorder

	now int64
	// peers is the active set in id order; isPeer is indexed by id
	// over [0, N).
	peers     []int32
	isPeer    []bool
	nextSeq   int32
	inflight  map[int32]*pendingXfer // seq -> block
	dedup     map[int32]*dedupRing   // sender -> applied seqs
	nextProbe int64

	draining bool
	leaveAt  int64
	left     bool

	generated, injected, completed         int64
	acked, retries, requeued, dupDropped   int64
	balanceActions, tasksMoved, tasksTaken int64

	epoch  uint8
	outLog map[int32]*OutRecord // seq -> forensic record (cfg.Ledger)
	inLog  map[inKey]*InRecord
}

// New builds a node on a transport. The transport must already host
// cfg.ID locally (socktrans Config.Local, or the in-memory network).
func New(tr transport.Transport, cfg Config) (*Node, error) {
	if cfg.N < 1 || cfg.ID < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("node: id %d outside fleet [0, %d)", cfg.ID, cfg.N)
	}
	t := stats.PaperT(cfg.N)
	if cfg.Heavy <= 0 {
		cfg.Heavy = 2 * t
	}
	// The suspect deadline scales with the fleet: a node heartbeats one
	// random peer per cadence, so a peer's silence toward us is long in
	// expectation even when it is alive — the window must hold several
	// expected targeting intervals or small fleets churn with false
	// suspicions.
	hb := int64(4)
	dc := detect.Config{
		HeartbeatEvery: hb,
		SuspectAfter:   hb * int64(2*cfg.N+4),
		DownAfter:      4 * hb * int64(2*cfg.N+4),
	}.Merge(cfg.Detect)
	if dc.Seed == 0 {
		dc.Seed = cfg.Seed + 1
	}
	det, err := detect.New(cfg.N, dc)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 1
	}
	n := &Node{
		cfg:      cfg,
		tr:       tr,
		rng:      xrand.New(cfg.Seed).Split(uint64(cfg.ID) + 0x9e3779b9),
		det:      det,
		isPeer:   make([]bool, cfg.N),
		inflight: make(map[int32]*pendingXfer),
		dedup:    make(map[int32]*dedupRing),
		epoch:    uint8(cfg.Epoch),
	}
	if cfg.Ledger {
		n.outLog = make(map[int32]*OutRecord)
		n.inLog = make(map[inKey]*InRecord)
	}
	// Startup join volley. Every node bootstraps with the whole id
	// space, so a receiver learns nothing from greeting back: the
	// volley alone resets each peer's dedup ring for this incarnation.
	for p := int32(0); p < int32(cfg.N); p++ {
		if p != cfg.ID {
			n.admit(p)
			n.send(transport.Message{From: cfg.ID, To: p, Kind: transport.KindJoin})
		}
	}
	return n, nil
}

// ID returns the hosted processor id.
func (n *Node) ID() int32 { return n.cfg.ID }

// Load returns the current queue length in tasks.
func (n *Node) Load() int { return n.queue.Len() }

// Drain switches the node into drain mode: generation stops, the
// queue is shipped to alive peers, and once everything is acknowledged
// the node lingers briefly (re-acking retransmits), broadcasts
// KindLeave, and reports DrainDone.
func (n *Node) Drain() { n.draining = true }

// DrainDone reports whether a drain has fully completed.
func (n *Node) DrainDone() bool { return n.left }

// Tick advances the node one wall-clock tick: inbox, detector,
// generation, consumption, balancing (or drain shipping), heartbeats,
// and the retry pump. The host delivers the transport window first.
func (n *Node) Tick() {
	n.now++
	for _, m := range n.tr.Inbox(int(n.cfg.ID)) {
		if m.From >= 0 && int(m.From) < n.cfg.N {
			n.det.Heard(m.From, n.now)
		}
		n.handle(m)
	}
	n.det.Tick(n.now)
	if !n.draining && n.cfg.Model != nil {
		for i := n.cfg.Model.Generate(int(n.cfg.ID), n.rng, n.now); i > 0; i-- {
			w := int32(1)
			if n.cfg.Weigher != nil {
				w = n.cfg.Weigher.Weight(int(n.cfg.ID), n.rng, n.now)
			}
			n.queue.PushBack(task.Task{Origin: n.cfg.ID, Birth: n.now, Weight: w, Remaining: w})
			n.generated++
		}
	}
	n.consume()
	if n.draining {
		n.drainStep()
	} else {
		n.balance()
	}
	n.heartbeat()
	n.retryPump()
}

// Status is the node's observable state: the JSON document served to
// KindProbe status requests and printed by a draining daemon. The
// conservation audit reads Generated + Injected against Completed +
// Queued + Inflight.
type Status struct {
	ID        int32 `json:"id"`
	Now       int64 `json:"now"`
	Generated int64 `json:"generated"`
	Injected  int64 `json:"injected"`
	Completed int64 `json:"completed"`
	Queued    int64 `json:"queued"`
	// Inflight counts tasks aboard unacknowledged transfers; a clean
	// drain ends with zero.
	Inflight   int64 `json:"inflight"`
	Acked      int64 `json:"acked"`
	Retries    int64 `json:"retries"`
	Requeued   int64 `json:"requeued"`
	DupDropped int64 `json:"dup_dropped"`
	Draining   bool  `json:"draining,omitempty"`
	// Epoch is the incarnation this status describes (restarts bump it).
	Epoch uint8 `json:"epoch,omitempty"`
	// Out and In carry the forensic transfer logs when Config.Ledger is
	// on — the join inputs of ComputeLedger.
	Out []OutRecord `json:"out,omitempty"`
	In  []InRecord  `json:"in,omitempty"`
	// Recorder carries the full task-lifecycle accounting so a client
	// can merge nodes exactly and derive the same wait and locality
	// columns the lockstep backends report.
	Recorder task.Recorder `json:"recorder"`
}

// Status snapshots the node.
func (n *Node) Status() Status {
	inflight := int64(0)
	for _, x := range n.inflight {
		inflight += int64(len(x.tasks))
	}
	st := Status{
		ID: n.cfg.ID, Now: n.now,
		Generated: n.generated, Injected: n.injected, Completed: n.completed,
		Queued: int64(n.queue.Len()), Inflight: inflight,
		Acked: n.acked, Retries: n.retries, Requeued: n.requeued, DupDropped: n.dupDropped,
		Draining: n.draining,
		Epoch:    n.epoch,
		Recorder: n.rec,
	}
	if n.cfg.Ledger {
		st.Out = make([]OutRecord, 0, len(n.outLog))
		for _, r := range n.outLog {
			st.Out = append(st.Out, *r)
		}
		st.In = make([]InRecord, 0, len(n.inLog))
		for _, r := range n.inLog {
			st.In = append(st.In, *r)
		}
	}
	return st
}

// Suspects reports whether this node's failure detector currently
// suspects peer p — the observable chaos experiments use to measure
// detection latency after a kill.
func (n *Node) Suspects(p int32) bool { return n.det.Suspected(p) }

// Recorder exposes the task-lifecycle recorder for aggregation.
func (n *Node) Recorder() *task.Recorder { return &n.rec }

// Totals returns the conservation operands plus the move counters, for
// fleet-level metrics.
func (n *Node) Totals() (generated, injected, completed, queued, inflight, moved, actions int64) {
	st := n.Status()
	return st.Generated, st.Injected, st.Completed, st.Queued, st.Inflight, n.tasksMoved, n.balanceActions
}

func (n *Node) send(m transport.Message) { n.tr.Send(m) }

// handle dispatches one inbound protocol message.
func (n *Node) handle(m transport.Message) {
	switch m.Kind {
	case transport.KindQuery:
		// A load probe: answer with our load so the sender can decide.
		n.send(transport.Message{From: n.cfg.ID, To: m.From, Kind: transport.KindID, A: int32(n.queue.Len())})
	case transport.KindID:
		n.maybeShip(m.From, int(m.A))
	case transport.KindTransfer:
		n.applyTransfer(m)
	case transport.KindTransferAck:
		// The ack must come from the block's receiver: under chaos a
		// delayed or duplicated ack can arrive long after its seq, and
		// matching by seq alone would let it retire the wrong block.
		if x, ok := n.inflight[m.B]; ok && x.to == m.From {
			n.acked += int64(len(x.tasks))
			n.tasksMoved += int64(len(x.tasks))
			n.balanceActions++
			delete(n.inflight, m.B)
			if r, ok := n.outLog[m.B]; ok {
				r.State = XferAcked
			}
		}
	case transport.KindProbe:
		if m.B == 1 {
			blob, err := json.Marshal(n.Status())
			if err != nil {
				return
			}
			n.send(transport.Message{From: n.cfg.ID, To: m.From, Kind: transport.KindProbe,
				A: int32(n.queue.Len()), B: 2, Blob: blob})
		}
	case transport.KindJoin:
		// A join marks a fresh incarnation of the sender (a restarted
		// daemon, a new load generator): its transfer sequence numbers
		// restart from zero, so the dedup history kept for the previous
		// incarnation must be discarded or every early block would be
		// acked-but-dropped as a stale retransmit.
		delete(n.dedup, m.From)
		if !n.inFleet(m.From) {
			return
		}
		n.admit(m.From)
	case transport.KindDrain, transport.KindLeave:
		n.evict(m.From)
	case transport.KindHeartbeat:
		// Liveness evidence only; Heard already ran.
	}
}

// applyTransfer enqueues a received task block exactly once and always
// acknowledges — a duplicate means the ack was lost, so the remedy is
// another ack, never another application.
func (n *Node) applyTransfer(m transport.Message) {
	n.send(transport.Message{From: n.cfg.ID, To: m.From, Kind: transport.KindTransferAck, B: m.B})
	ring, ok := n.dedup[m.From]
	if !ok {
		ring = newDedupRing()
		n.dedup[m.From] = ring
	}
	if ring.has(m.B) {
		n.dupDropped++
		n.logIn(m, false)
		return
	}
	ring.add(m.B)
	n.logIn(m, true)
	injected := m.From == LoadGenID
	for _, t := range m.Tasks {
		if t.Birth < 0 {
			t.Birth = n.now
		}
		if t.Origin < 0 {
			t.Origin = n.cfg.ID
		}
		if !injected {
			t.Hops++
		}
		if t.Remaining < 1 {
			t.Remaining = maxI32(t.Weight, 1)
		}
		n.queue.PushBack(t)
	}
	if injected {
		n.injected += int64(len(m.Tasks))
	} else {
		n.tasksTaken += int64(len(m.Tasks))
	}
}

// consume serves the tick's consumption budget off the queue front.
func (n *Node) consume() {
	want := serveRate
	if n.cfg.Model != nil {
		want = n.cfg.Model.WantConsume(int(n.cfg.ID), n.rng, n.now)
	}
	for want > 0 && n.queue.Len() > 0 {
		head := n.queue.FrontPtr()
		head.Remaining--
		want--
		if head.Remaining <= 0 {
			t := n.queue.PopFront()
			n.rec.Complete(t, n.cfg.ID, n.now)
			n.completed++
		}
	}
}

// balance probes a random alive peer when the queue is heavy; the
// KindID answer decides whether a block ships.
func (n *Node) balance() {
	if n.queue.Len() < n.cfg.Heavy || len(n.inflight) > 0 || n.now < n.nextProbe {
		return
	}
	p, ok := n.pickPartner()
	if !ok {
		return
	}
	n.nextProbe = n.now + retryAfter
	n.send(transport.Message{From: n.cfg.ID, To: p, Kind: transport.KindQuery, A: int32(n.queue.Len())})
}

// maybeShip reacts to a load answer: ship half the difference when the
// peer is meaningfully lighter.
func (n *Node) maybeShip(to int32, theirLoad int) {
	if len(n.inflight) > 0 || n.draining {
		return
	}
	diff := n.queue.Len() - theirLoad
	if n.queue.Len() < n.cfg.Heavy || diff < 2 {
		return
	}
	n.ship(to, minI(diff/2, maxShip))
}

// ship moves k tasks from the queue tail into an acknowledged
// transfer. Shipping the tail keeps the oldest tasks — the ones
// closest to completing — on their origin processor.
func (n *Node) ship(to int32, k int) {
	if k < 1 {
		return
	}
	seq := n.nextSeq
	n.nextSeq++
	block := n.queue.TakeBack(k)
	n.inflight[seq] = &pendingXfer{to: to, tasks: block, sentAt: n.now, attempts: 1}
	if n.cfg.Ledger {
		n.outLog[seq] = &OutRecord{
			To: to, Epoch: n.epoch, Seq: seq,
			Size: int64(len(block)), State: XferInflight,
		}
	}
	n.send(transport.Message{From: n.cfg.ID, To: to, Kind: transport.KindTransfer,
		A: int32(len(block)), B: seq, Tasks: block, Blob: []byte{n.epoch}})
}

// drainStep ships the remaining queue away, then lingers (re-acking
// retransmits whose acks may have raced the shutdown) and leaves.
func (n *Node) drainStep() {
	if n.left {
		return
	}
	if n.queue.Len() > 0 && len(n.inflight) == 0 {
		if p, ok := n.pickPartner(); ok {
			n.ship(p, minI(n.queue.Len(), maxShip))
		}
		return
	}
	if n.queue.Len() == 0 && len(n.inflight) == 0 {
		if n.leaveAt == 0 {
			n.leaveAt = n.now + 2*retryAfter
			for _, p := range n.peers {
				n.send(transport.Message{From: n.cfg.ID, To: p, Kind: transport.KindDrain})
			}
		} else if n.now >= n.leaveAt {
			for _, p := range n.peers {
				n.send(transport.Message{From: n.cfg.ID, To: p, Kind: transport.KindLeave})
			}
			n.left = true
		}
	}
}

// heartbeat keeps quiet links warm on the detector's stagger. The
// target is a uniform draw over the whole active set, suspected peers
// included, like the lockstep detector's Target: a heartbeat is what
// lets a falsely suspected peer readmit us, so skipping the peers we
// suspect would make every false suspicion mutual and permanent.
func (n *Node) heartbeat() {
	if n.left || !n.det.Due(n.cfg.ID, n.now) || len(n.peers) == 0 {
		return
	}
	p := n.peers[n.rng.Intn(len(n.peers))]
	n.send(transport.Message{From: n.cfg.ID, To: p, Kind: transport.KindHeartbeat})
}

// retryPump resends stale transfers and requeues exhausted ones.
func (n *Node) retryPump() {
	for seq, x := range n.inflight {
		if n.now-x.sentAt < retryAfter {
			continue
		}
		dead := !n.active(x.to) || n.det.State(x.to) == detect.Down
		if x.attempts >= xferAttempts || dead {
			// Requeue locally. If the original delivery landed and only
			// the ack was lost this double-counts — at-least-once, which
			// the forensic log makes attributable: the ledger joins this
			// record against the receiver's applied log and charges the
			// surplus to its requeue-after-delivery row.
			n.queue.PushBackAll(x.tasks)
			n.requeued += int64(len(x.tasks))
			delete(n.inflight, seq)
			if r, ok := n.outLog[seq]; ok {
				r.State = XferRequeued
			}
			continue
		}
		x.attempts++
		x.sentAt = n.now
		n.retries++
		n.send(transport.Message{From: n.cfg.ID, To: x.to, Kind: transport.KindTransfer,
			A: int32(len(x.tasks)), B: seq, Tasks: x.tasks, Blob: []byte{n.epoch}})
	}
}

// pickPartner draws a uniform random active, unsuspected peer for a
// probe or a drain shipment. The draw is seeded and allocation-free:
// count the k candidates, draw r from the node's own stream, and walk
// the id-ordered active set to the r-th candidate. It is O(n), but only
// balance (on a heavy node, at most once per retryAfter) and drainStep
// call it.
func (n *Node) pickPartner() (int32, bool) {
	k := 0
	for _, p := range n.peers {
		if !n.det.Suspected(p) {
			k++
		}
	}
	if k == 0 {
		return 0, false
	}
	r := n.rng.Intn(k)
	for _, p := range n.peers {
		if !n.det.Suspected(p) {
			if r == 0 {
				return p, true
			}
			r--
		}
	}
	panic("node: partner walk ran past its count")
}

// inFleet reports whether p is a processor id in [0, N).
func (n *Node) inFleet(p int32) bool { return p >= 0 && int(p) < n.cfg.N }

// active reports whether p is in the active set.
func (n *Node) active(p int32) bool { return n.inFleet(p) && n.isPeer[p] }

// admit adds p to the active set, keeping it in id order. The node
// itself and ids outside the fleet are never admitted.
func (n *Node) admit(p int32) {
	if !n.inFleet(p) || p == n.cfg.ID || n.isPeer[p] {
		return
	}
	n.isPeer[p] = true
	i := len(n.peers)
	for i > 0 && n.peers[i-1] > p {
		i--
	}
	n.peers = append(n.peers, 0)
	copy(n.peers[i+1:], n.peers[i:])
	n.peers[i] = p
}

// evict removes p from the active set.
func (n *Node) evict(p int32) {
	if !n.active(p) {
		return
	}
	n.isPeer[p] = false
	for i, q := range n.peers {
		if q == p {
			n.peers = append(n.peers[:i], n.peers[i+1:]...)
			return
		}
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
