package membus

import (
	"testing"
	"testing/quick"

	"plb/internal/transport"
)

// all returns the ids [0, n).
func all(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func TestUnitLatency(t *testing.T) {
	v := New(3).View(all(3))
	v.Send(transport.Message{From: 0, To: 2, Kind: transport.KindQuery, A: 7})
	if len(v.Inbox(2)) != 0 {
		t.Fatal("frame visible before Deliver")
	}
	v.Deliver()
	in := v.Inbox(2)
	if len(in) != 1 || in[0].A != 7 || in[0].Kind != transport.KindQuery {
		t.Fatalf("inbox = %+v", in)
	}
	v.Deliver()
	if len(v.Inbox(2)) != 0 {
		t.Fatal("frame survived a second Deliver")
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	v := New(4).View(all(4))
	// Send from 2, then 0, then 2 again; the inbox must read 0, 2, 2
	// with send order kept within sender 2.
	v.Send(transport.Message{From: 2, To: 1, A: 10})
	v.Send(transport.Message{From: 0, To: 1, A: 20})
	v.Send(transport.Message{From: 2, To: 1, A: 30})
	v.Deliver()
	in := v.Inbox(1)
	if len(in) != 3 {
		t.Fatalf("inbox len = %d", len(in))
	}
	if in[0].From != 0 || in[1].A != 10 || in[2].A != 30 {
		t.Fatalf("order wrong: %+v", in)
	}
}

func TestCounters(t *testing.T) {
	v := New(4).View(all(4))
	for i := 0; i < 5; i++ {
		v.Send(transport.Message{From: 0, To: 3, Kind: transport.KindQuery})
	}
	v.Send(transport.Message{From: 1, To: 2, Kind: transport.KindAccept})
	v.Deliver()
	if got := v.Stats(); got != (transport.Stats{Sent: 6}) {
		t.Fatalf("Stats = %+v", got)
	}
	if k := v.SentByKind(); k[transport.KindQuery] != 5 || k[transport.KindAccept] != 1 {
		t.Fatalf("kind counts = %v", k)
	}
}

func TestQuickConservation(t *testing.T) {
	// Property: every sent frame is delivered exactly once, to the
	// right inbox.
	f := func(routes []uint8) bool {
		v := New(8).View(all(8))
		counts := make(map[int32]int)
		for i, r := range routes {
			to := int32(r % 8)
			v.Send(transport.Message{From: int32(i % 8), To: to, A: int32(i)})
			counts[to]++
		}
		v.Deliver()
		for p := 0; p < 8; p++ {
			if len(v.Inbox(p)) != counts[int32(p)] {
				return false
			}
			for _, m := range v.Inbox(p) {
				if m.To != int32(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowClock checks that the bus opens one window per step however
// many views deliver, in either order: a frame sent while window 1 is
// open, by a view that has opened it to one that has not, is readable
// in window 2, not 1.
func TestWindowClock(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		bus := New(2)
		views := [2]*View{bus.View([]int32{0}), bus.View([]int32{1})}
		first, second := views[order[0]], views[order[1]]
		to := int32(order[1])
		first.Deliver()
		first.Send(transport.Message{From: int32(order[0]), To: to})
		second.Deliver()
		if got := len(second.Inbox(int(to))); got != 0 {
			t.Fatalf("order %v: frame sent in window 1 read in window 1", order)
		}
		first.Deliver()
		second.Deliver()
		if got := len(second.Inbox(int(to))); got != 1 {
			t.Fatalf("order %v: %d frames in window 2, want 1", order, got)
		}
	}
}

// TestLaggingViewCatchesUp checks a view that skipped windows: its next
// Deliver opens the bus's current window, reads everything sent before
// that window opened, and leaves what was sent since for the next one.
func TestLaggingViewCatchesUp(t *testing.T) {
	bus := New(2)
	a, b := bus.View([]int32{0}), bus.View([]int32{1})
	for i := int32(1); i <= 3; i++ {
		b.Send(transport.Message{From: 1, To: 0, A: i})
		if i < 3 {
			b.Deliver()
		}
	}
	a.Deliver()
	if in := a.Inbox(0); len(in) != 2 || in[0].A != 1 || in[1].A != 2 {
		t.Fatalf("catch-up window = %+v, want the frames of windows 0 and 1", in)
	}
	a.Deliver()
	if in := a.Inbox(0); len(in) != 1 || in[0].A != 3 {
		t.Fatalf("next window = %+v, want the frame sent in window 2", in)
	}
}

// TestCheckDiscards checks the delivery-time check: an inbox it calls
// crashed or gone is emptied and booked under that counter, and the id
// receives again once the check lets it.
func TestCheckDiscards(t *testing.T) {
	bus := New(3)
	v := bus.View(all(3))
	bus.SetCheck(func(id int32, win int64) Loss {
		switch {
		case id == 1 && win == 1:
			return CrashLost
		case id == 2:
			return GoneLost
		}
		return Kept
	})
	for to := int32(0); to < 3; to++ {
		v.Send(transport.Message{From: 0, To: to})
		v.Send(transport.Message{From: 0, To: to})
	}
	v.Deliver()
	if len(v.Inbox(0)) != 2 || len(v.Inbox(1)) != 0 || len(v.Inbox(2)) != 0 {
		t.Fatalf("inboxes %d/%d/%d, want 2/0/0", len(v.Inbox(0)), len(v.Inbox(1)), len(v.Inbox(2)))
	}
	if got, want := v.Stats(), (transport.Stats{Sent: 6, CrashLost: 2, GoneLost: 2}); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	v.Send(transport.Message{From: 0, To: 1})
	v.Deliver()
	if len(v.Inbox(1)) != 1 {
		t.Fatal("id 1 did not receive once the check let it")
	}
}

// TestMemBusAccounting checks the bus's per-view delivery and its loss
// books: out-of-bus ids are GoneLost, down ids CrashLost, a close
// discards the frames still queued for the view, and a drained burst
// does not stay allocated.
func TestMemBusAccounting(t *testing.T) {
	bus := New(4)
	a, b := bus.View([]int32{0, 1}), bus.View([]int32{2, 3})
	a.Send(transport.Message{From: 0, To: 2, Kind: transport.KindQuery})
	a.Send(transport.Message{From: 0, To: 1, Kind: transport.KindHeartbeat})
	a.Send(transport.Message{From: 0, To: 4, Kind: transport.KindJoin})
	a.Send(transport.Message{From: 0, To: -1, Kind: transport.KindJoin})
	b.Deliver()
	if got := b.Inbox(2); len(got) != 1 || got[0].Kind != transport.KindQuery {
		t.Fatalf("inbox 2 = %v, want the query at the next window", got)
	}
	if got := a.Inbox(1); len(got) != 0 {
		t.Fatalf("inbox 1 read %v before its view delivered", got)
	}
	a.Deliver()
	if got := a.Inbox(1); len(got) != 1 {
		t.Fatalf("inbox 1 = %v after delivery", got)
	}
	b.Send(transport.Message{From: 2, To: 0, Kind: transport.KindID})
	a.Close()
	b.Send(transport.Message{From: 2, To: 1, Kind: transport.KindID})
	a2 := bus.View([]int32{0, 1})
	a2.Deliver()
	if got := a2.Inbox(0); len(got) != 0 {
		t.Fatalf("frame queued before the close survived it: %v", got)
	}
	if got, want := a.Stats(), (transport.Stats{Sent: 4, GoneLost: 2}); got != want {
		t.Fatalf("sender stats = %+v, want %+v", got, want)
	}
	if got, want := b.Stats(), (transport.Stats{Sent: 2, CrashLost: 1}); got != want {
		t.Fatalf("stats across a close = %+v, want %+v", got, want)
	}
	if k := b.SentByKind(); k[transport.KindID] != 2 {
		t.Fatalf("kind counts = %v", k)
	}
	// A burst's buffers are released once drained, not kept for life.
	for i := 0; i < 200; i++ {
		a2.Send(transport.Message{From: 0, To: 2, Kind: transport.KindJoin})
	}
	for i := 0; i < 4; i++ {
		b.Deliver()
	}
	if c := cap(bus.cur[2]) + cap(bus.pend[2]); c > 128 {
		t.Fatalf("id 2 still holds %d slots after its burst drained", c)
	}
}
