package chaostrans

import (
	"sync"
	"testing"

	"plb/internal/faults"
	"plb/internal/transport"
)

// loopTrans is a minimal in-memory inner transport: every id is
// local, Deliver moves pending to current — just enough socket-shaped
// behavior to observe what the middleware forwards.
type loopTrans struct {
	n int

	mu       sync.Mutex
	pending  map[int32][]transport.Message
	current  map[int32][]transport.Message
	received int64
}

func newLoop(n int) *loopTrans {
	return &loopTrans{
		n:       n,
		pending: make(map[int32][]transport.Message),
		current: make(map[int32][]transport.Message),
	}
}

func (l *loopTrans) N() int       { return l.n }
func (l *loopTrans) Close() error { return nil }

func (l *loopTrans) Send(m transport.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.received++
	l.pending[m.To] = append(l.pending[m.To], m)
}

func (l *loopTrans) Deliver() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id := range l.current {
		l.current[id] = l.current[id][:0]
	}
	for id, msgs := range l.pending {
		l.current[id] = append(l.current[id], msgs...)
		l.pending[id] = l.pending[id][:0]
	}
}

func (l *loopTrans) Inbox(p int) []transport.Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.current[int32(p)]
}

func (l *loopTrans) Stats() transport.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return transport.Stats{Sent: l.received}
}

func (l *loopTrans) Received() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.received
}

func msg(from, to int32, seq int32) transport.Message {
	return transport.Message{From: from, To: to, Kind: transport.KindHeartbeat, B: seq}
}

func TestSplitPlan(t *testing.T) {
	link, proc, err := SplitPlan(faults.Plan{
		Drop: 0.1, Dup: 0.05, Delay: 0.2, MaxDelay: 3,
		PartitionGroups: 2, PartitionUntil: 100,
		CrashK: 1, CrashAt: 50, CrashRecover: 120,
		FlapK: 2, FlapPeriod: 40, FlapDuty: 0.5,
		StragglerFrac: 0.1, Slowdown: 4,
	})
	if err != nil {
		t.Fatalf("SplitPlan: %v", err)
	}
	if link.CrashK != 0 || link.FlapK != 0 {
		t.Fatalf("link plan kept process features: %+v", link)
	}
	if link.Drop != 0.1 || link.PartitionGroups != 2 || link.StragglerFrac != 0.1 {
		t.Fatalf("link plan lost link features: %+v", link)
	}
	if proc.CrashK != 1 || proc.CrashAt != 50 || proc.CrashRecover != 120 || proc.FlapK != 2 {
		t.Fatalf("proc plan lost process features: %+v", proc)
	}
	if proc.Drop != 0 || proc.PartitionGroups != 0 {
		t.Fatalf("proc plan kept link features: %+v", proc)
	}
	for _, bad := range []faults.Plan{
		{ChurnJoin: 2, ChurnLeave: 2, ChurnPeriod: 100},
		{DrainK: 2, DrainAt: 10},
		{Redistribute: true},
	} {
		if _, _, err := SplitPlan(bad); err == nil {
			t.Errorf("SplitPlan(%+v): want rejection, got nil", bad)
		}
	}
}

func TestWrapRejectsProcessPlans(t *testing.T) {
	if _, err := Wrap(newLoop(4), faults.Plan{CrashK: 1, CrashRecover: -1}, 1, 0); err == nil {
		t.Fatal("Wrap accepted a crash schedule; processes die by SIGKILL, not by the transport")
	}
	if _, err := Wrap(newLoop(4), faults.Plan{ChurnJoin: 1, ChurnPeriod: 10}, 1, 0); err == nil {
		t.Fatal("Wrap accepted a churn schedule")
	}
}

func TestDeterministicFates(t *testing.T) {
	run := func() (Counters, int64) {
		inner := newLoop(8)
		tr, err := Wrap(inner, faults.Plan{Drop: 0.3, Dup: 0.2, Delay: 0.3, MaxDelay: 2, Seed: 7}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var seq int32
		for step := 0; step < 50; step++ {
			for from := int32(0); from < 8; from++ {
				seq++
				tr.Send(msg(from, (from+1)%8, seq))
			}
			tr.Deliver()
		}
		for i := 0; i < 4; i++ { // flush held frames
			tr.Deliver()
		}
		return tr.Counters(), inner.Received()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("same seed, different trace: %+v/%d vs %+v/%d", c1, r1, c2, r2)
	}
	if c1.Dropped == 0 || c1.Duplicated == 0 || c1.Delayed == 0 {
		t.Fatalf("plan injected nothing: %+v", c1)
	}
	if c1.Held != 0 {
		t.Fatalf("%d frames still held after flush", c1.Held)
	}
	// Conservation at the frame boundary: everything sent either
	// reached the inner transport (plus duplicates) or was dropped.
	if want := c1.Sent - c1.Dropped + c1.Duplicated; r1 != want {
		t.Fatalf("inner received %d frames, want sent-dropped+dup = %d (%+v)", r1, want, c1)
	}
}

func TestPartitionCutsAndHeals(t *testing.T) {
	inner := newLoop(4)
	tr, err := Wrap(inner, faults.Plan{PartitionGroups: 2, PartitionUntil: 10, Seed: 3}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Steps 0..9: cross-group (0->1) frames are cut, same-group (0->2)
	// frames pass.
	for step := 0; step < 10; step++ {
		tr.Send(msg(0, 1, int32(step)))
		tr.Send(msg(0, 2, int32(step)))
		tr.Deliver()
		if got := len(inner.Inbox(1)); got != 0 {
			t.Fatalf("step %d: cross-group frame crossed a partition", step)
		}
		if got := len(inner.Inbox(2)); got != 1 {
			t.Fatalf("step %d: same-group frame cut, inbox %d", step, got)
		}
	}
	// Healed: cross-group traffic flows.
	tr.Send(msg(0, 1, 99))
	tr.Deliver()
	if got := len(inner.Inbox(1)); got != 1 {
		t.Fatalf("post-heal: cross-group inbox %d, want 1", got)
	}
	c := tr.Counters()
	if c.Dropped != 10 {
		t.Fatalf("partition dropped %d frames, want 10", c.Dropped)
	}
}

func TestDelayHoldsAndReleases(t *testing.T) {
	inner := newLoop(2)
	tr, err := Wrap(inner, faults.Plan{Delay: 1.0, MaxDelay: 3, Seed: 5}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Send(msg(0, 1, 1))
	if got := inner.Received(); got != 0 {
		t.Fatalf("delayed frame reached inner immediately (%d)", got)
	}
	if c := tr.Counters(); c.Held != 1 || c.Delayed != 1 {
		t.Fatalf("counters %+v, want one held delayed frame", c)
	}
	for i := 0; i < 3; i++ {
		tr.Deliver()
	}
	if got := inner.Received(); got != 1 {
		t.Fatalf("inner received %d after max delay, want 1", got)
	}
	if c := tr.Counters(); c.Held != 0 {
		t.Fatalf("%d frames still held after release window", c.Held)
	}
}

func TestStatsFoldInjectedFates(t *testing.T) {
	inner := newLoop(4)
	tr, err := Wrap(inner, faults.Plan{Drop: 0.5, Seed: 11}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 100; i++ {
		tr.Send(msg(0, 1, i))
	}
	tr.Deliver()
	s := tr.Stats()
	c := tr.Counters()
	if s.Sent != 100 {
		t.Fatalf("Stats.Sent %d, want protocol-boundary 100", s.Sent)
	}
	if s.Dropped != c.Dropped || c.Dropped == 0 {
		t.Fatalf("Stats.Dropped %d vs injected %d", s.Dropped, c.Dropped)
	}
	if got := tr.SentByKind()[transport.KindHeartbeat]; got != 100 {
		t.Fatalf("SentByKind heartbeat %d, want 100", got)
	}
}
