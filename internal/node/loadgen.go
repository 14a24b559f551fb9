package node

import (
	"encoding/json"
	"fmt"
	"time"

	"plb/internal/gen"
	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/xrand"
)

// genRetryAfter is the ticks before an unacknowledged injection is
// retried.
const genRetryAfter = 16

// GenConfig parameterizes a load-generator replay.
type GenConfig struct {
	// N is the fleet id space the workload spans.
	N int
	// Model drives arrivals exactly as the lockstep backends read it:
	// Generate(p, ...) tasks per processor per tick, injected at
	// processor p.
	Model gen.Model
	// Weigher assigns service weights (nil = unit).
	Weigher gen.Weigher
	// Seed derives the replay's randomness.
	Seed uint64
	// Ticks is the replay length.
	Ticks int
	// Pause is the wall-clock pause per tick (<= 0 derives 1ms).
	Pause time.Duration
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Gen replays a workload against a running fleet from the client side
// of a transport: every injection is an acknowledged KindTransfer from
// LoadGenID, retried until acked, so when Run returns every generated
// task is owned by exactly one node (the fleet's dedup rings absorb
// retry duplicates).
type Gen struct {
	cfg GenConfig
	tr  transport.Transport
	rng *xrand.Stream

	now     int64
	nextSeq int32
	pending map[int32]*pendingXfer

	generated, acked int64
}

// NewGen builds a load generator on a client transport (an endpoint
// whose Local list is {LoadGenID}, typically with no listener).
func NewGen(tr transport.Transport, cfg GenConfig) (*Gen, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("node: loadgen needs n >= 1, got %d", cfg.N)
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("node: loadgen needs an arrival model")
	}
	if _, ok := cfg.Model.(gen.StepAware); ok {
		return nil, fmt.Errorf("node: model %q plans against fleet-wide loads each step; the load generator has no such view — use a non-adversarial model or a workload: spec", cfg.Model.Name())
	}
	if cfg.Pause <= 0 {
		cfg.Pause = time.Millisecond
	}
	g := &Gen{
		cfg:     cfg,
		tr:      tr,
		rng:     xrand.New(cfg.Seed).Split(0x10ad),
		pending: make(map[int32]*pendingXfer),
	}
	// Announce this incarnation before any transfer: the join rides the
	// same ordered connection, so every node resets its dedup history
	// for the load generator before seeing the first (reused) seq.
	for p := 0; p < cfg.N; p++ {
		tr.Send(transport.Message{From: LoadGenID, To: int32(p), Kind: transport.KindJoin})
	}
	return g, nil
}

// Generated and Acked report the replay's conservation operands:
// tasks injected, and tasks whose ownership transfer to a node was
// acknowledged. Run only returns nil when they are equal.
func (g *Gen) Generated() int64 { return g.generated }
func (g *Gen) Acked() int64     { return g.acked }

// Run replays the workload, then pumps retries until every injection
// is acknowledged or the deadline passes. drainFor <= 0 derives 30s.
func (g *Gen) Run(drainFor time.Duration) error {
	if drainFor <= 0 {
		drainFor = 30 * time.Second
	}
	for t := 0; t < g.cfg.Ticks; t++ {
		g.tick(true)
		time.Sleep(g.cfg.Pause)
	}
	deadline := time.Now().Add(drainFor)
	for len(g.pending) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("node: loadgen drain timed out with %d transfers (%d/%d tasks acked)",
				len(g.pending), g.acked, g.generated)
		}
		g.tick(false)
		time.Sleep(g.cfg.Pause)
	}
	return nil
}

// tick opens a delivery window, collects acks, optionally generates
// this tick's arrivals, and retries stale injections.
func (g *Gen) tick(generate bool) {
	g.now++
	g.tr.Deliver()
	for _, m := range g.tr.Inbox(int(LoadGenID)) {
		if m.Kind == transport.KindTransferAck {
			if x, ok := g.pending[m.B]; ok {
				g.acked += int64(len(x.tasks))
				delete(g.pending, m.B)
			}
		}
	}
	if generate {
		for p := 0; p < g.cfg.N; p++ {
			c := g.cfg.Model.Generate(p, g.rng, g.now)
			if c == 0 {
				continue
			}
			block := make([]task.Task, c)
			for i := range block {
				w := int32(1)
				if g.cfg.Weigher != nil {
					w = g.cfg.Weigher.Weight(p, g.rng, g.now)
				}
				// Origin is the injection target and Birth is stamped by
				// the receiving node's clock, so locality and wait columns
				// mean the same thing they mean on the lockstep backends.
				block[i] = task.Task{Origin: int32(p), Birth: -1, Weight: w, Remaining: w}
			}
			seq := g.nextSeq
			g.nextSeq++
			g.pending[seq] = &pendingXfer{to: int32(p), tasks: block, sentAt: g.now, attempts: 1}
			g.generated += int64(c)
			g.tr.Send(transport.Message{From: LoadGenID, To: int32(p), Kind: transport.KindTransfer,
				A: int32(c), B: seq, Tasks: block, Blob: []byte{1}})
		}
	}
	for seq, x := range g.pending {
		if g.now-x.sentAt < genRetryAfter {
			continue
		}
		x.sentAt = g.now
		x.attempts++
		if g.cfg.Logf != nil && x.attempts%8 == 0 {
			g.cfg.Logf("loadgen: transfer %d to %d still unacked after %d attempts", seq, x.to, x.attempts)
		}
		g.tr.Send(transport.Message{From: LoadGenID, To: x.to, Kind: transport.KindTransfer,
			A: int32(len(x.tasks)), B: seq, Tasks: x.tasks, Blob: []byte{1}})
	}
}

// Probe asks every node for its status document (KindProbe B=1 → B=2)
// and returns them ordered by id, retrying until the deadline.
func (g *Gen) Probe(timeout time.Duration) ([]Status, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	got := make(map[int32]Status)
	deadline := time.Now().Add(timeout)
	lastAsk := time.Time{}
	for len(got) < g.cfg.N {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node: probe timed out with %d/%d statuses", len(got), g.cfg.N)
		}
		if time.Since(lastAsk) > 250*time.Millisecond {
			lastAsk = time.Now()
			for p := 0; p < g.cfg.N; p++ {
				if _, ok := got[int32(p)]; !ok {
					g.tr.Send(transport.Message{From: LoadGenID, To: int32(p), Kind: transport.KindProbe, B: 1})
				}
			}
		}
		g.tr.Deliver()
		for _, m := range g.tr.Inbox(int(LoadGenID)) {
			if m.Kind != transport.KindProbe || m.B != 2 {
				continue
			}
			var st Status
			if err := json.Unmarshal(m.Blob, &st); err != nil {
				return nil, fmt.Errorf("node: probe reply from %d: %w", m.From, err)
			}
			got[m.From] = st
		}
		time.Sleep(2 * time.Millisecond)
	}
	out := make([]Status, 0, g.cfg.N)
	for p := 0; p < g.cfg.N; p++ {
		out = append(out, got[int32(p)])
	}
	return out, nil
}

// MergeStatuses folds node statuses into one exact task-lifecycle
// summary plus the fleet-wide conservation operands — the same wait
// and locality columns the lockstep backends report.
func MergeStatuses(sts []Status) (task.Summary, Status) {
	var rec task.Recorder
	var tot Status
	tot.ID = -1
	for _, st := range sts {
		rec.Merge(&st.Recorder)
		tot.Generated += st.Generated
		tot.Injected += st.Injected
		tot.Completed += st.Completed
		tot.Queued += st.Queued
		tot.Inflight += st.Inflight
		tot.Acked += st.Acked
		tot.Retries += st.Retries
		tot.Requeued += st.Requeued
		tot.DupDropped += st.DupDropped
	}
	tot.Recorder = rec
	return rec.Summary(), tot
}
