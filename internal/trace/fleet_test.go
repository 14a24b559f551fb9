package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"plb/internal/gen"
	"plb/internal/node"
)

// The recorder must work against a non-sim Runner with the exact same
// semantics: the tests below drive a fleet of node runtimes exchanging
// real messages on the in-memory network.

func memFleet(t *testing.T) *node.Fleet {
	t.Helper()
	model, err := gen.NewSingle(0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := node.NewFleet(node.FleetConfig{N: 16, Network: "mem", Seed: 7, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRecorderLiveCadence(t *testing.T) {
	s := memFleet(t)
	r := NewRecorder(10)
	r.Run(s, 105) // 10, 20, ..., 100, 105
	pts := r.Points()
	if len(pts) != 11 {
		t.Fatalf("points = %d, want 11", len(pts))
	}
	for i := 0; i < 10; i++ {
		if pts[i].Step != int64((i+1)*10) {
			t.Fatalf("point %d at step %d, want %d", i, pts[i].Step, (i+1)*10)
		}
	}
	if pts[10].Step != 105 {
		t.Fatalf("tail sample at step %d, want 105", pts[10].Step)
	}
	if r.Meta().Backend != "mem" {
		t.Fatalf("recorded backend %q, want mem", r.Meta().Backend)
	}
}

func TestRecorderLiveCountersMonotone(t *testing.T) {
	s := memFleet(t)
	r := NewRecorder(5)
	r.Run(s, 200)
	var prev Point
	for i, p := range r.Points() {
		if p.Step <= prev.Step {
			t.Fatalf("point %d: step %d not after %d", i, p.Step, prev.Step)
		}
		if p.Messages < prev.Messages || p.TasksMoved < prev.TasksMoved || p.BalanceActions < prev.BalanceActions {
			t.Fatalf("point %d: cumulative counters regressed: %+v after %+v", i, p, prev)
		}
		if p.MaxLoad < 0 || p.TotalLoad < p.MaxLoad {
			t.Fatalf("point %d: inconsistent loads %+v", i, p)
		}
		prev = p
	}
	if prev.Messages == 0 {
		t.Fatal("fleet recorded no messages in 200 steps")
	}
}

func TestRecorderLiveRoundTrip(t *testing.T) {
	s := memFleet(t)
	r := NewRecorder(25)
	r.Run(s, 100)

	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(r.Points()) {
		t.Fatalf("csv lines = %d, want %d:\n%s", len(lines), 1+len(r.Points()), csv.String())
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var series Series
	if err := json.NewDecoder(&buf).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if series.Meta != r.Meta() {
		t.Fatalf("meta round-trip: got %+v, want %+v", series.Meta, r.Meta())
	}
	if len(series.Points) != len(r.Points()) {
		t.Fatalf("points round-trip: got %d, want %d", len(series.Points), len(r.Points()))
	}
	for i, p := range series.Points {
		if p != r.Points()[i] {
			t.Fatalf("point %d round-trip: got %+v, want %+v", i, p, r.Points()[i])
		}
	}
}

func TestRecorderLiveLatencySeries(t *testing.T) {
	// The fleet publishes Metrics.Tasks, so the recorded series
	// must carry the sojourn statistics: present, and with the
	// cumulative ones (MaxWait) monotone across samples. A cumulative
	// p99 may dip as fast tasks dilute the tail, but it can never
	// exceed the cumulative max.
	s := memFleet(t)
	r := NewRecorder(20)
	r.Run(s, 400)
	var prevMax int64
	sawWait := false
	for i, p := range r.Points() {
		if p.MeanWait > 0 || p.MaxWait > 0 {
			sawWait = true
		}
		if p.MaxWait < prevMax {
			t.Fatalf("point %d: cumulative MaxWait regressed %d -> %d", i, prevMax, p.MaxWait)
		}
		prevMax = p.MaxWait
		if p.P99Wait > 0 && p.MaxWait > 0 && p.P99Wait/2 > p.MaxWait {
			t.Fatalf("point %d: p99 bucket floor %d above max %d", i, p.P99Wait/2, p.MaxWait)
		}
	}
	if !sawWait {
		t.Fatal("400 fleet steps produced no sojourn statistics in the trace")
	}
}
