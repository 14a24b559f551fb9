package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func testPins(t *testing.T) map[string]string {
	t.Helper()
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	return pins
}

func testConfig(t *testing.T) *benchConfig {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that each emits every metric BENCHMARK.json names for it in
// the driver's one-line schema, and that a traced run writes spans.
func TestSmoke(t *testing.T) {
	cfg, pins := testConfig(t), testPins(t)
	for _, traced := range []bool{false, true} {
		for _, w := range workloadList(true) {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rc := runConfig{seed: 1, window: 300 * time.Millisecond, traced: traced, toy: true, pins: pins}
				if traced {
					rc.window = 2*traceBlock + 100*time.Millisecond
					rc.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				}
				res, err := runWorkload(w, rc)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Checks) == 0 {
					t.Fatalf("result: correct %v, attempted %d, failed %d, checks %v", res.Correct, res.Attempted, res.Failed, res.Checks)
				}
				metrics, _, err := selectMetrics(cfg, w, res, traced)
				if err != nil {
					t.Fatal(err)
				}
				want := len(cfg.EndToEnd)
				if traced {
					want = len(cfg.PerLayer)
				}
				if len(metrics) != want {
					t.Fatalf("%d metrics emitted, BENCHMARK.json names %d", len(metrics), want)
				}
				for name, m := range metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				raw, err := json.Marshal(summaryLine{res.Correct, res.Attempted, res.Failed, metrics})
				if err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(raw, &line); err != nil || len(line) != 4 {
					t.Fatalf("summary line %s: %v", raw, err)
				}
				if traced {
					checkSpans(t, rc.spans)
				}
			})
		}
	}
}

// checkSpans requires a non-empty JSONL file of well-formed spans.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Trace == "" || s.Name == "" || s.End < s.Start {
			t.Fatalf("malformed span %s", sc.Text())
		}
		n++
	}
	if n == 0 {
		t.Fatal("traced run wrote no spans")
	}
}

// TestTamperedPinFailsTheRun: a lockstep run whose pinned digest does
// not match fails the named check instead of reporting numbers.
func TestTamperedPinFailsTheRun(t *testing.T) {
	pins := testPins(t)
	w := workloadList(true)[0]
	pins[w.name+"@toy"] = "0000000000000000"
	res, err := runWorkload(w, runConfig{seed: 1, window: 100 * time.Millisecond, toy: true, pins: pins})
	var ce *checkError
	if !errors.As(err, &ce) || ce.check != "lockstep.digest" {
		t.Fatalf("got result %v, error %v; want a failed lockstep.digest check", res, err)
	}
}

// TestConfigMatchesBenchmark holds BENCHMARK.json to the benchmark's
// workloads and to the limits its format sets.
func TestConfigMatchesBenchmark(t *testing.T) {
	cfg := testConfig(t)
	ws := workloadList(false)
	if len(cfg.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(cfg.Workloads), len(ws))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range cfg.Workloads {
		if w.Name != ws[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q", i, w.Name, len(w.Why), ws[i].name)
		}
	}
	for _, d := range append(append([]metricDef(nil), cfg.EndToEnd...), cfg.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range cfg.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q2, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "steps_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		head []float64
		want string
	}{
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "improved"},
		{[]float64{101, 100, 99, 100, 101, 99, 100, 100, 99, 101}, "within bound"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regressed"},
		{[]float64{60, 140, 70, 130, 100, 65, 135, 100, 62, 138}, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(base, c.head, higher); got != c.want {
			t.Errorf("head %v: verdict %q, want %q", c.head, got, c.want)
		}
	}
}
