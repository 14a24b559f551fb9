package node

import (
	"reflect"
	"testing"

	"plb/internal/engine"
	"plb/internal/faults"
	"plb/internal/transport"
)

// memRun drives one chaos fleet on the mem network and returns its
// per-step loads and final metrics, then settles it and checks the
// conservation ledger closes.
func memRun(t *testing.T, seed uint64) ([][]int32, engine.Metrics) {
	t.Helper()
	plan, err := faults.ParsePlan("lossy:0.1,dup:0.05,delay:0.2@3,crash:0.1@60-160")
	if err != nil {
		t.Fatal(err)
	}
	model := &hotModel{}
	f, err := NewFleet(FleetConfig{
		N: 24, Endpoints: 6, Network: "mem", Seed: seed, Model: model, Faults: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var loads [][]int32
	for s := 0; s < 300; s++ {
		f.Steps(1)
		loads = append(loads, append([]int32(nil), f.Loads()...))
	}
	m := f.Collect()
	model.off = true
	if !f.Settle(4000) {
		t.Fatal("mem fleet never settled")
	}
	if in, out, led := f.AuditLedger(); in-out != led.Net() {
		t.Fatalf("seed %d: imbalance %d, ledger %+v (net %d)", seed, in-out, led, led.Net())
	}
	return loads, m
}

// TestMemFleetSeedExact runs one fleet configuration twice on the mem
// network under a plan mixing loss, duplication, delay and
// kill-restart: every per-step load vector and the final metrics must
// match exactly, and another seed must give another run.
func TestMemFleetSeedExact(t *testing.T) {
	loadsA, mA := memRun(t, 7)
	loadsB, mB := memRun(t, 7)
	if !reflect.DeepEqual(loadsA, loadsB) {
		for s := range loadsA {
			if !reflect.DeepEqual(loadsA[s], loadsB[s]) {
				t.Fatalf("step %d loads differ between identical runs:\n%v\n%v", s+1, loadsA[s], loadsB[s])
			}
		}
	}
	if !reflect.DeepEqual(mA, mB) {
		t.Fatalf("final metrics differ between identical runs:\n%+v\n%+v", mA, mB)
	}
	for _, k := range []string{"net_dropped", "net_duplicated", "net_delayed", "net_crash_lost", "restarts"} {
		if mA.Extra[k] == 0 {
			t.Errorf("plan family behind %s never fired: %v", k, mA.Extra)
		}
	}
	if mA.TasksMoved == 0 {
		t.Error("no transfer completed, so the chaos plan mauled no task block")
	}
	loadsC, mC := memRun(t, 8)
	if reflect.DeepEqual(loadsA, loadsC) || reflect.DeepEqual(mA, mC) {
		t.Fatal("seeds 7 and 8 gave identical runs")
	}
}

// TestMemBusAccounting checks the bus's per-endpoint delivery and its
// loss books: out-of-fleet ids are GoneLost, down ids CrashLost, a
// close discards the frames still queued for the endpoint, and a
// drained burst does not stay allocated.
func TestMemBusAccounting(t *testing.T) {
	bus := newMemBus(4)
	a, b := bus.view([]int32{0, 1}), bus.view([]int32{2, 3})
	a.Send(transport.Message{From: 0, To: 2, Kind: transport.KindQuery})
	a.Send(transport.Message{From: 0, To: 1, Kind: transport.KindHeartbeat})
	a.Send(transport.Message{From: 0, To: 4, Kind: transport.KindJoin})
	a.Send(transport.Message{From: 0, To: -1, Kind: transport.KindJoin})
	b.Deliver()
	if got := b.Inbox(2); len(got) != 1 || got[0].Kind != transport.KindQuery {
		t.Fatalf("inbox 2 = %v, want the query at the next window", got)
	}
	if got := a.Inbox(1); len(got) != 0 {
		t.Fatalf("inbox 1 read %v before its endpoint delivered", got)
	}
	a.Deliver()
	if got := a.Inbox(1); len(got) != 1 {
		t.Fatalf("inbox 1 = %v after delivery", got)
	}
	b.Send(transport.Message{From: 2, To: 0, Kind: transport.KindID})
	a.Close()
	b.Send(transport.Message{From: 2, To: 1, Kind: transport.KindID})
	a2 := bus.view([]int32{0, 1})
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
	if c := cap(bus.cur[2]) + cap(bus.next[2]); c > 128 {
		t.Fatalf("id 2 still holds %d slots after its burst drained", c)
	}
}

// TestBootJoinVolleyOnce checks the boot handshake costs one KindJoin
// per ordered pair: every node bootstraps with the whole id space, so
// nobody greets back.
func TestBootJoinVolleyOnce(t *testing.T) {
	const n = 16
	f, err := NewFleet(FleetConfig{N: n, Network: "mem", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Steps(3)
	if got, want := f.Collect().Extra["sent_join"], int64(n*(n-1)); got != want {
		t.Fatalf("sent_join = %d after boot, want n·(n−1) = %d", got, want)
	}
}

// TestReviveKeepsFaultClock runs a partition that heals at step 100
// and a crash window that revives an endpoint at step 200: the revived
// endpoint's chaos layer must share the fleet's fault clock, so the
// healed partition stays healed and no frame drops after step 100.
func TestReviveKeepsFaultClock(t *testing.T) {
	plan, err := faults.ParsePlan("partition:2@100,crash:1@150-200")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(FleetConfig{N: 8, Endpoints: 8, Network: "mem", Seed: 3, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Steps(100)
	healed := f.Collect().Drops
	if healed == 0 {
		t.Fatal("the partition dropped nothing before it healed")
	}
	f.Steps(200)
	if f.Restarts() == 0 {
		t.Fatal("the crash window never revived an endpoint")
	}
	if got := f.Collect().Drops; got != healed {
		t.Fatalf("%d frames dropped after the partition healed at step 100", got-healed)
	}
}
