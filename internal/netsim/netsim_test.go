package netsim

import (
	"testing"
	"testing/quick"

	"plb/internal/faults"
	"plb/internal/transport"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("n=0 accepted")
	}
	nw, err := New(4)
	if err != nil || nw.N() != 4 {
		t.Fatalf("New(4) = %v, %v", nw, err)
	}
}

func TestUnitLatency(t *testing.T) {
	nw, _ := New(3)
	nw.Send(Message{From: 0, To: 2, Kind: transport.KindQuery, A: 7})
	if len(nw.Inbox(2)) != 0 {
		t.Fatal("message visible before Deliver")
	}
	nw.Deliver()
	in := nw.Inbox(2)
	if len(in) != 1 || in[0].A != 7 || in[0].Kind != transport.KindQuery {
		t.Fatalf("inbox = %+v", in)
	}
	nw.Deliver()
	if len(nw.Inbox(2)) != 0 {
		t.Fatal("message survived a second Deliver")
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	nw, _ := New(4)
	// Send from 2, then 0, then 2 again; inbox must read 0, 2, 2 with
	// send order preserved within sender 2.
	nw.Send(Message{From: 2, To: 1, A: 10})
	nw.Send(Message{From: 0, To: 1, A: 20})
	nw.Send(Message{From: 2, To: 1, A: 30})
	nw.Deliver()
	in := nw.Inbox(1)
	if len(in) != 3 {
		t.Fatalf("inbox len = %d", len(in))
	}
	if in[0].From != 0 || in[1].A != 10 || in[2].A != 30 {
		t.Fatalf("order wrong: %+v", in)
	}
}

func TestCounters(t *testing.T) {
	nw, _ := New(4)
	for i := 0; i < 5; i++ {
		nw.Send(Message{From: 0, To: 3})
	}
	nw.Send(Message{From: 1, To: 2})
	nw.Deliver()
	if nw.Sent() != 6 {
		t.Fatalf("Sent = %d", nw.Sent())
	}
	if nw.PeakInbox() != 5 {
		t.Fatalf("PeakInbox = %d", nw.PeakInbox())
	}
}

func TestSendPanicsOnBadEndpoint(t *testing.T) {
	nw, _ := New(2)
	for _, m := range []Message{
		{From: -1, To: 0},
		{From: 0, To: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Send(%+v) did not panic", m)
				}
			}()
			nw.Send(m)
		}()
	}
}

func TestReset(t *testing.T) {
	nw, _ := New(2)
	nw.Send(Message{From: 0, To: 1})
	nw.Deliver()
	nw.Send(Message{From: 0, To: 1})
	nw.Reset()
	if len(nw.Inbox(1)) != 0 {
		t.Fatal("Reset left delivered messages")
	}
	nw.Deliver()
	if len(nw.Inbox(1)) != 0 {
		t.Fatal("Reset left queued messages")
	}
	if nw.Sent() != 2 {
		t.Fatal("Reset should keep counters")
	}
}

func TestQuickConservation(t *testing.T) {
	// Property: every sent message is delivered exactly once, to the
	// right inbox.
	f := func(routes []uint8) bool {
		nw, err := New(8)
		if err != nil {
			return false
		}
		counts := make(map[int32]int)
		for i, r := range routes {
			to := int32(r % 8)
			nw.Send(Message{From: int32(i % 8), To: to, A: int32(i)})
			counts[to]++
		}
		nw.Deliver()
		for p := 0; p < 8; p++ {
			if len(nw.Inbox(p)) != counts[int32(p)] {
				return false
			}
			for _, m := range nw.Inbox(p) {
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

func TestPeakSendDegree(t *testing.T) {
	nw, _ := New(4)
	for i := 0; i < 7; i++ {
		nw.Send(Message{From: 1, To: 2})
	}
	nw.Send(Message{From: 0, To: 2})
	if nw.PeakSendDegree() != 7 {
		t.Fatalf("peak send degree = %d, want 7", nw.PeakSendDegree())
	}
	nw.Deliver()
	// Counter resets per window; the historical peak is retained.
	nw.Send(Message{From: 3, To: 0})
	if nw.PeakSendDegree() != 7 {
		t.Fatalf("historical peak lost: %d", nw.PeakSendDegree())
	}
}

func TestFaultDropAll(t *testing.T) {
	nw, _ := New(2)
	inj, err := faults.NewInjector(2, faults.Lossy(1))
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(inj)
	for i := 0; i < 40; i++ {
		nw.Send(Message{From: 0, To: 1})
	}
	nw.Deliver()
	if len(nw.Inbox(1)) != 0 {
		t.Fatal("full fault loss delivered messages")
	}
	if nw.Dropped() != 40 {
		t.Fatalf("Dropped = %d, want 40", nw.Dropped())
	}
}

func TestFaultDuplicate(t *testing.T) {
	nw, _ := New(2)
	inj, err := faults.NewInjector(2, faults.Plan{Dup: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(inj)
	nw.Send(Message{From: 0, To: 1, A: 7})
	nw.Deliver()
	in := nw.Inbox(1)
	if len(in) != 2 || in[0].A != 7 || in[1].A != 7 {
		t.Fatalf("duplication inbox = %+v", in)
	}
	if nw.Duplicated() != 1 {
		t.Fatalf("Duplicated = %d, want 1", nw.Duplicated())
	}
}

func TestFaultDelay(t *testing.T) {
	nw, _ := New(2)
	inj, err := faults.NewInjector(2, faults.Plan{Delay: 1, MaxDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(inj)
	nw.Send(Message{From: 0, To: 1, A: 9})
	nw.Deliver()
	if len(nw.Inbox(1)) != 0 {
		t.Fatal("delayed message arrived on time")
	}
	nw.Deliver()
	in := nw.Inbox(1)
	if len(in) != 1 || in[0].A != 9 {
		t.Fatalf("delayed inbox = %+v", in)
	}
	if nw.Delayed() != 1 {
		t.Fatalf("Delayed = %d, want 1", nw.Delayed())
	}
}

func TestCrashedRecipientNeverReceives(t *testing.T) {
	// Crash windows cover both send-time drops and delivery-time
	// discards: a message sent before the crash but arriving during it
	// must also vanish.
	nw, _ := New(4)
	inj, err := faults.NewInjector(4, faults.Plan{Crashes: []faults.Crash{
		{Proc: 2, At: 1, Recover: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(inj)
	// Sent during netsim step 0, delivered at step 1 — recipient is
	// down at delivery.
	nw.Send(Message{From: 0, To: 2})
	nw.Deliver() // step 1
	if len(nw.Inbox(2)) != 0 {
		t.Fatal("message delivered to crashed processor")
	}
	if nw.CrashLost() != 1 {
		t.Fatalf("CrashLost = %d, want 1", nw.CrashLost())
	}
	// Sent while the recipient is down — dropped at send time.
	nw.Send(Message{From: 0, To: 2})
	if nw.Dropped() != 1 {
		t.Fatalf("send to crashed not dropped: Dropped = %d", nw.Dropped())
	}
	// After recovery traffic flows again.
	nw.Deliver() // step 2: still down
	nw.Deliver() // step 3: recovered
	nw.Send(Message{From: 0, To: 2})
	nw.Deliver() // step 4
	if len(nw.Inbox(2)) != 1 {
		t.Fatal("recovered processor did not receive")
	}
}

func TestFaultTraceDeterministic(t *testing.T) {
	run := func() (int64, int64, int64, int) {
		nw, _ := New(8)
		inj, err := faults.NewInjector(8, faults.Plan{
			Drop: 0.2, Dup: 0.1, Delay: 0.3, MaxDelay: 3, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		nw.SetFaults(inj)
		delivered := 0
		for step := 0; step < 50; step++ {
			for f := 0; f < 8; f++ {
				nw.Send(Message{From: int32(f), To: int32((f + step) % 8)})
			}
			nw.Deliver()
			for p := 0; p < 8; p++ {
				delivered += len(nw.Inbox(p))
			}
		}
		return nw.Dropped(), nw.Duplicated(), nw.Delayed(), delivered
	}
	d1, u1, l1, n1 := run()
	d2, u2, l2, n2 := run()
	if d1 != d2 || u1 != u2 || l1 != l2 || n1 != n2 {
		t.Fatalf("same-seed fault traces diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
			d1, u1, l1, n1, d2, u2, l2, n2)
	}
	if d1 == 0 || u1 == 0 || l1 == 0 {
		t.Fatalf("faults inactive: drop=%d dup=%d delay=%d", d1, u1, l1)
	}
}

func TestSetFaultsNilKeepsPerfectNetwork(t *testing.T) {
	nw, _ := New(2)
	nw.SetFaults(nil)
	nw.Send(Message{From: 0, To: 1})
	nw.Deliver()
	if len(nw.Inbox(1)) != 1 {
		t.Fatal("nil injector perturbed delivery")
	}
}
