package node

import (
	"sync"
	"testing"
	"time"

	"plb/internal/gen"
	"plb/internal/transport/socktrans"
	"plb/internal/xrand"
)

// hotModel overloads processor 0 (3 tasks/tick while on) and serves
// one task per tick everywhere — the skew that forces balancing. The
// switch lets tests stop arrivals and drain to quiescence, where the
// conservation audit is exact.
type hotModel struct{ off bool }

func (m *hotModel) Name() string { return "hot0" }
func (m *hotModel) Generate(proc int, _ *xrand.Stream, _ int64) int {
	if m.off || proc != 0 {
		return 0
	}
	return 3
}
func (m *hotModel) WantConsume(int, *xrand.Stream, int64) int { return 1 }

// quiesce pumps the fleet until nothing is in flight and the audit
// balances — the earliest point at which exact conservation holds.
func quiesce(t *testing.T, f *Fleet) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		f.Steps(5)
		in, out := f.Audit()
		if in == out && f.Collect().Extra["inflight"] == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not quiesce: in=%d out=%d", in, out)
		}
	}
}

func testFleetBalances(t *testing.T, network string) {
	model := &hotModel{}
	f, err := NewFleet(FleetConfig{
		N: 4, Endpoints: 2, Network: network, Seed: 11, Model: model,
		Pause: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Steps(400)
	model.off = true
	quiesce(t, f)
	m := f.Collect()
	if m.Generated == 0 || m.Completed == 0 {
		t.Fatalf("no work flowed: %+v", m)
	}
	if m.TasksMoved == 0 || m.BalanceActions == 0 {
		t.Fatalf("overload on processor 0 never balanced: moved=%d actions=%d", m.TasksMoved, m.BalanceActions)
	}
	if in, out := f.Audit(); in != out {
		t.Fatalf("conservation violated: generated+injected=%d, completed+queued+inflight=%d", in, out)
	}
	if m.Tasks == nil || m.Tasks.Completed != m.Completed {
		t.Fatalf("recorder disagrees with counters: %+v vs completed=%d", m.Tasks, m.Completed)
	}
	// The overloaded processor shipped work away, so some tasks must
	// have completed off their origin.
	if m.Tasks.Locality >= 1.0 {
		t.Fatalf("locality %v means nothing ran off-origin despite balancing", m.Tasks.Locality)
	}
	want := "sockets"
	if network == "mem" {
		want = "mem"
	}
	if f.Meta().Backend != want {
		t.Fatalf("backend = %q, want %q", f.Meta().Backend, want)
	}
}

func TestFleetBalancesUnix(t *testing.T) { testFleetBalances(t, "unix") }
func TestFleetBalancesTCP(t *testing.T)  { testFleetBalances(t, "tcp") }
func TestFleetBalancesMem(t *testing.T)  { testFleetBalances(t, "mem") }

// TestLoadGenReplay drives a daemon-shaped fleet (no local generation)
// from a client-only load generator and checks the acked-injection
// accounting end to end: everything generated is acked, injected
// exactly once, and conserved.
func TestLoadGenReplay(t *testing.T) {
	f, err := NewFleet(FleetConfig{N: 4, Endpoints: 2, Network: "unix", Seed: 3,
		Pause: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cli, err := socktrans.New(socktrans.Config{
		Network: "unix", N: 4, Local: []int32{LoadGenID}, Peers: f.PeerTable(),
		SuspectAfter: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	model, werr := gen.NewSingle(0.4, 0.1)
	if werr != nil {
		t.Fatal(werr)
	}
	g, err := NewGen(cli, GenConfig{N: 4, Model: model, Seed: 9, Ticks: 150,
		Pause: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.Steps(1)
			}
		}
	}()
	runErr := g.Run(20 * time.Second)
	sts, probeErr := g.Probe(10 * time.Second)
	close(stop)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if probeErr != nil {
		t.Fatal(probeErr)
	}
	if g.Generated() == 0 || g.Generated() != g.Acked() {
		t.Fatalf("generated %d, acked %d", g.Generated(), g.Acked())
	}
	sum, tot := MergeStatuses(sts)
	if tot.Injected != g.Generated() {
		t.Fatalf("fleet injected %d, loadgen generated %d (dup filter broken?)", tot.Injected, g.Generated())
	}
	if tot.Generated != 0 {
		t.Fatalf("daemon-shaped fleet generated locally: %d", tot.Generated)
	}
	if got := tot.Completed + tot.Queued + tot.Inflight; got != tot.Injected {
		t.Fatalf("conservation violated: completed+queued+inflight=%d, injected=%d", got, tot.Injected)
	}
	if sum.Completed != tot.Completed {
		t.Fatalf("merged recorder %d completions, counters say %d", sum.Completed, tot.Completed)
	}
}

// TestDrainHandsOff checks the drain protocol: a draining node ships
// its queue to the fleet, ends with nothing queued or in flight, and
// the tasks complete elsewhere.
func TestDrainHandsOff(t *testing.T) {
	model := &hotModel{}
	f, err := NewFleet(FleetConfig{N: 3, Endpoints: 3, Network: "unix", Seed: 5, Model: model,
		Pause: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Steps(100) // build a backlog on node 0
	model.off = true
	f.node(0).Drain()
	deadline := time.Now().Add(20 * time.Second)
	for !f.node(0).DrainDone() {
		if time.Now().After(deadline) {
			st := f.node(0).Status()
			t.Fatalf("drain never finished: %+v", st)
		}
		f.Steps(5)
	}
	st := f.node(0).Status()
	if st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("drain left work behind: %+v", st)
	}
	quiesce(t, f)
	if in, out := f.Audit(); in != out {
		t.Fatalf("conservation violated after drain: in=%d out=%d", in, out)
	}
}
