package node

import (
	"reflect"
	"testing"

	"plb/internal/engine"
	"plb/internal/faults"
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
