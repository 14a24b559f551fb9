package chaostrans

import (
	"testing"

	"plb/internal/faults"
	"plb/internal/transport"
	"plb/internal/transport/membus"
	"plb/internal/transport/socktrans"
)

func injector(t *testing.T, n int, p faults.Plan) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// overBus wraps one view of every id of an n-id bus, the shape the
// lockstep protocol runs on.
func overBus(t *testing.T, n int, p faults.Plan) (*Trans, *membus.View) {
	t.Helper()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	inner := membus.New(n).View(ids)
	return Wrap(inner, injector(t, n, p), 0), inner
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

// TestDeterministicFates replays one plan twice: the fate trace, the
// frames delivered and the frames forwarded must match exactly.
func TestDeterministicFates(t *testing.T) {
	run := func() (Counters, int64, int) {
		tr, inner := overBus(t, 8, faults.Plan{Drop: 0.3, Dup: 0.2, Delay: 0.3, MaxDelay: 2, Seed: 7})
		var seq int32
		delivered := 0
		for step := 0; step < 54; step++ { // the last 4 windows flush held frames
			if step < 50 {
				for from := int32(0); from < 8; from++ {
					seq++
					tr.Send(msg(from, (from+int32(step))%8, seq))
				}
			}
			tr.Deliver()
			for p := 0; p < 8; p++ {
				delivered += len(tr.Inbox(p))
			}
		}
		return tr.Counters(), inner.Stats().Sent, delivered
	}
	c1, r1, d1 := run()
	c2, r2, d2 := run()
	if c1 != c2 || r1 != r2 || d1 != d2 {
		t.Fatalf("same seed, different trace: %+v/%d/%d vs %+v/%d/%d", c1, r1, d1, c2, r2, d2)
	}
	if c1.Dropped == 0 || c1.Duplicated == 0 || c1.Delayed == 0 {
		t.Fatalf("plan injected nothing: %+v", c1)
	}
	if c1.Held != 0 {
		t.Fatalf("%d frames still held after flush", c1.Held)
	}
	// Conservation at the frame boundary: everything sent either
	// reached the inner transport (plus duplicates) or was dropped.
	if want := c1.Sent - c1.Dropped + c1.Duplicated; r1 != want || int64(d1) != want {
		t.Fatalf("inner received %d and delivered %d frames, want sent-dropped+dup = %d (%+v)", r1, d1, want, c1)
	}
}

// TestFaultTraceDeterministic replays a plan whose delays span up to
// three windows, with no flush: the fault counts and the frames
// delivered must match run for run, and every fault kind must fire.
func TestFaultTraceDeterministic(t *testing.T) {
	run := func() (Counters, int) {
		tr, _ := overBus(t, 8, faults.Plan{Drop: 0.2, Dup: 0.1, Delay: 0.3, MaxDelay: 3, Seed: 5})
		delivered := 0
		for step := 0; step < 50; step++ {
			for from := int32(0); from < 8; from++ {
				tr.Send(msg(from, (from+int32(step))%8, int32(step)))
			}
			tr.Deliver()
			for p := 0; p < 8; p++ {
				delivered += len(tr.Inbox(p))
			}
		}
		return tr.Counters(), delivered
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("same-seed fault traces diverged: %+v/%d vs %+v/%d", c1, d1, c2, d2)
	}
	if c1.Dropped == 0 || c1.Duplicated == 0 || c1.Delayed == 0 {
		t.Fatalf("faults inactive: %+v", c1)
	}
}

func TestPartitionCutsAndHeals(t *testing.T) {
	tr, _ := overBus(t, 4, faults.Plan{PartitionGroups: 2, PartitionUntil: 10, Seed: 3})
	// Steps 0..9: cross-group (0->1) frames are cut, same-group (0->2)
	// frames pass.
	for step := 0; step < 10; step++ {
		tr.Send(msg(0, 1, int32(step)))
		tr.Send(msg(0, 2, int32(step)))
		tr.Deliver()
		if got := len(tr.Inbox(1)); got != 0 {
			t.Fatalf("step %d: cross-group frame crossed a partition", step)
		}
		if got := len(tr.Inbox(2)); got != 1 {
			t.Fatalf("step %d: same-group frame cut, inbox %d", step, got)
		}
	}
	// Healed: cross-group traffic flows.
	tr.Send(msg(0, 1, 99))
	tr.Deliver()
	if got := len(tr.Inbox(1)); got != 1 {
		t.Fatalf("post-heal: cross-group inbox %d, want 1", got)
	}
	c := tr.Counters()
	if c.Dropped != 10 {
		t.Fatalf("partition dropped %d frames, want 10", c.Dropped)
	}
}

func TestDelayHoldsAndReleases(t *testing.T) {
	tr, inner := overBus(t, 2, faults.Plan{Delay: 1.0, MaxDelay: 3, Seed: 5})
	tr.Send(msg(0, 1, 1))
	if got := inner.Stats().Sent; got != 0 {
		t.Fatalf("delayed frame reached inner immediately (%d)", got)
	}
	if c := tr.Counters(); c.Held != 1 || c.Delayed != 1 {
		t.Fatalf("counters %+v, want one held delayed frame", c)
	}
	for i := 0; i < 3; i++ {
		tr.Deliver()
	}
	if got := inner.Stats().Sent; got != 1 {
		t.Fatalf("inner received %d after max delay, want 1", got)
	}
	if c := tr.Counters(); c.Held != 0 {
		t.Fatalf("%d frames still held after release window", c.Held)
	}
}

func TestStatsFoldInjectedFates(t *testing.T) {
	tr, _ := overBus(t, 4, faults.Plan{Drop: 0.5, Seed: 11})
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

func TestFaultDropAll(t *testing.T) {
	tr, _ := overBus(t, 2, faults.Lossy(1))
	for i := int32(0); i < 40; i++ {
		tr.Send(msg(0, 1, i))
	}
	tr.Deliver()
	if len(tr.Inbox(1)) != 0 {
		t.Fatal("full fault loss delivered frames")
	}
	if got := tr.Stats().Dropped; got != 40 {
		t.Fatalf("Dropped = %d, want 40", got)
	}
}

func TestFaultDuplicate(t *testing.T) {
	tr, _ := overBus(t, 2, faults.Plan{Dup: 1})
	tr.Send(msg(0, 1, 7))
	tr.Deliver()
	in := tr.Inbox(1)
	if len(in) != 2 || in[0].B != 7 || in[1].B != 7 {
		t.Fatalf("duplication inbox = %+v", in)
	}
	if got := tr.Stats().Duplicated; got != 1 {
		t.Fatalf("Duplicated = %d, want 1", got)
	}
}

func TestFaultDelay(t *testing.T) {
	tr, _ := overBus(t, 2, faults.Plan{Delay: 1, MaxDelay: 1})
	tr.Send(msg(0, 1, 9))
	tr.Deliver()
	if len(tr.Inbox(1)) != 0 {
		t.Fatal("delayed frame arrived on time")
	}
	tr.Deliver()
	if in := tr.Inbox(1); len(in) != 1 || in[0].B != 9 {
		t.Fatalf("delayed inbox = %+v", in)
	}
	if got := tr.Stats().Delayed; got != 1 {
		t.Fatalf("Delayed = %d, want 1", got)
	}
}

// TestCrashedRecipientNeverReceives runs the lockstep protocol's shape:
// the wrapper draws fates from a plan with a crash window, and the bus
// check discards what reaches the crashed id. A frame sent before the
// crash but arriving during it must vanish like one sent during it.
func TestCrashedRecipientNeverReceives(t *testing.T) {
	inj := injector(t, 4, faults.Plan{Crashes: []faults.Crash{{Proc: 2, At: 1, Recover: 3}}})
	bus := membus.New(4)
	bus.SetCheck(func(id int32, win int64) membus.Loss {
		if inj.Crashed(id, win) {
			return membus.CrashLost
		}
		return membus.Kept
	})
	tr := Wrap(bus.View([]int32{0, 1, 2, 3}), inj, 0)
	// Sent in window 0, delivered in window 1: the recipient is down
	// at delivery.
	tr.Send(msg(0, 2, 1))
	tr.Deliver()
	if len(tr.Inbox(2)) != 0 {
		t.Fatal("frame delivered to a crashed processor")
	}
	if got := tr.Stats().CrashLost; got != 1 {
		t.Fatalf("CrashLost = %d, want 1", got)
	}
	// Sent while the recipient is down: dropped at send.
	tr.Send(msg(0, 2, 2))
	if got := tr.Stats().Dropped; got != 1 {
		t.Fatalf("send to a crashed processor not dropped: Dropped = %d", got)
	}
	tr.Deliver() // window 2: still down
	tr.Deliver() // window 3: recovered
	tr.Send(msg(0, 2, 3))
	tr.Deliver()
	if len(tr.Inbox(2)) != 1 {
		t.Fatal("recovered processor did not receive")
	}
}

// TestDelayWindowExact sends one frame fated Delay = 1 in each place a
// wrapper can release it: within one bus view, between two views in
// both directions (the views delivering in a fixed order, as a fleet's
// endpoints do), and between two local ids of one socket endpoint. It
// must be readable exactly one window after an undelayed frame, that
// is two windows after the one it was sent in.
func TestDelayWindowExact(t *testing.T) {
	plan := faults.Plan{Delay: 1, MaxDelay: 1}
	check := func(t *testing.T, send func(), deliver func(), inbox func() []transport.Message) {
		t.Helper()
		deliver()
		send()
		for w := 2; w <= 4; w++ {
			deliver()
			want := 0
			if w == 3 {
				want = 1
			}
			if got := len(inbox()); got != want {
				t.Fatalf("window %d: %d frames, want %d (sent in window 1)", w, got, want)
			}
		}
	}
	t.Run("one view", func(t *testing.T) {
		tr, _ := overBus(t, 2, plan)
		check(t, func() { tr.Send(msg(0, 1, 1)) }, tr.Deliver, func() []transport.Message { return tr.Inbox(1) })
	})
	for _, dir := range []struct {
		name     string
		from, to int32
	}{{"to the later view", 0, 1}, {"to the earlier view", 1, 0}} {
		t.Run(dir.name, func(t *testing.T) {
			inj := injector(t, 2, plan)
			bus := membus.New(2)
			eps := []*Trans{Wrap(bus.View([]int32{0}), inj, 0), Wrap(bus.View([]int32{1}), inj, 0)}
			deliver := func() {
				for _, ep := range eps {
					ep.Deliver()
				}
			}
			check(t, func() { eps[dir.from].Send(msg(dir.from, dir.to, 1)) }, deliver,
				func() []transport.Message { return eps[dir.to].Inbox(int(dir.to)) })
		})
	}
	t.Run("socket endpoint", func(t *testing.T) {
		sock, err := socktrans.New(socktrans.Config{Network: "unix", N: 2, Local: []int32{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer sock.Close()
		tr := Wrap(sock, injector(t, 2, plan), 0)
		check(t, func() { tr.Send(msg(0, 1, 1)) }, tr.Deliver, func() []transport.Message { return tr.Inbox(1) })
	})
}
