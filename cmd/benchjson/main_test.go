package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: plb/internal/sim
cpu: some cpu
BenchmarkStep-8         	    1000	   1234.5 ns/op	     456 B/op	       7 allocs/op
BenchmarkStepSerial     	     500	   2000 ns/op
PASS
ok  	plb/internal/sim	1.234s
pkg: plb/internal/core
BenchmarkPhase-16       	   20000	     99.5 ns/op	       0 B/op	       0 allocs/op
ok  	plb/internal/core	0.5s
`

func TestParse(t *testing.T) {
	var echoed strings.Builder
	results, err := parse(strings.NewReader(sample), &echoed)
	if err != nil {
		t.Fatal(err)
	}
	if echoed.String() != sample {
		t.Fatalf("pass-through altered the output:\n%q\nvs\n%q", echoed.String(), sample)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkStep" || r.Procs != 8 || r.Package != "plb/internal/sim" {
		t.Fatalf("first result = %+v", r)
	}
	if r.Iterations != 1000 || r.NsPerOp != 1234.5 || r.BytesPerOp != 456 || r.AllocsPerOp != 7 {
		t.Fatalf("first result measurements = %+v", r)
	}
	r = results[1]
	if r.Name != "BenchmarkStepSerial" || r.Procs != 1 || r.NsPerOp != 2000 || r.BytesPerOp != 0 {
		t.Fatalf("second result = %+v", r)
	}
	r = results[2]
	if r.Name != "BenchmarkPhase" || r.Procs != 16 || r.Package != "plb/internal/core" {
		t.Fatalf("third result = %+v", r)
	}
}

func TestParseLineCustomMetrics(t *testing.T) {
	// Experiment benchmarks report task-latency statistics through
	// b.ReportMetric, which go test prints as extra "<value> <unit>/op"
	// column pairs. They must land in Extra without disturbing the
	// standard fields.
	line := "BenchmarkE23-8    3    4567 ns/op    3.50 mean_wait/op    16 p99_wait/op    24 max_wait/op    128 B/op    2 allocs/op"
	res, ok := parseLine(line, "plb")
	if !ok {
		t.Fatalf("custom-metric line rejected: %q", line)
	}
	if res.Name != "BenchmarkE23" || res.NsPerOp != 4567 || res.BytesPerOp != 128 || res.AllocsPerOp != 2 {
		t.Fatalf("standard fields disturbed: %+v", res)
	}
	want := map[string]float64{"mean_wait": 3.5, "p99_wait": 16, "max_wait": 24}
	if len(res.Extra) != len(want) {
		t.Fatalf("extra = %v, want %v", res.Extra, want)
	}
	for k, v := range want {
		if res.Extra[k] != v {
			t.Fatalf("extra[%q] = %v, want %v", k, res.Extra[k], v)
		}
	}
	// Non-/op units (MB/s throughput) are ignored, not recorded.
	res, ok = parseLine("BenchmarkIO-4  100  50 ns/op  200 MB/s", "")
	if !ok || res.Extra != nil {
		t.Fatalf("MB/s handling changed: ok=%v %+v", ok, res)
	}
}

func TestResultExtraJSONRoundTrip(t *testing.T) {
	// The latency metrics must survive a write/load cycle so -compare
	// and dashboards can read them back from committed artifacts.
	dir := t.TempDir()
	orig := File{Generated: "now", Results: []Result{
		{Name: "BenchmarkE23", Procs: 8, Iterations: 3, NsPerOp: 4567,
			Extra: map[string]float64{"mean_wait": 3.5, "p99_wait": 16}},
		{Name: "BenchmarkPlain", Procs: 1, Iterations: 10, NsPerOp: 12},
	}}
	path := writeFile(t, dir, "latency.json", orig)
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %+v", got.Results)
	}
	r := got.Results[0]
	if r.Extra["mean_wait"] != 3.5 || r.Extra["p99_wait"] != 16 || len(r.Extra) != 2 {
		t.Fatalf("extra did not round-trip: %+v", r.Extra)
	}
	if got.Results[1].Extra != nil {
		t.Fatalf("empty extra should stay nil (omitempty): %+v", got.Results[1])
	}
}

func TestParseLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	plb/internal/sim	1.2s",
		"Benchmark only two",
		"BenchmarkBad-8 notanumber 12 ns/op",
	} {
		if res, ok := parseLine(line, ""); ok {
			t.Fatalf("parsed noise %q into %+v", line, res)
		}
	}
}

// writeFile marshals a File to dir/name for the compare tests.
func writeFile(t *testing.T, dir, name string, f File) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", File{Generated: "then", Results: []Result{
		{Name: "BenchmarkA", Procs: 1, NsPerOp: 100, AllocsPerOp: 10},
		{Name: "BenchmarkB", Procs: 1, NsPerOp: 100, AllocsPerOp: 5},
		{Name: "BenchmarkOldOnly", Procs: 1, NsPerOp: 1},
	}})
	newPath := writeFile(t, dir, "new.json", File{Generated: "now", Results: []Result{
		{Name: "BenchmarkA", Procs: 1, NsPerOp: 50, AllocsPerOp: 0},  // improved
		{Name: "BenchmarkB", Procs: 1, NsPerOp: 200, AllocsPerOp: 5}, // regressed
		{Name: "BenchmarkNewOnly", Procs: 1, NsPerOp: 1},
	}})
	var out strings.Builder
	if err := runCompare(oldPath, newPath, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "BenchmarkA") || !strings.Contains(got, "-50.0%") {
		t.Fatalf("improvement row missing:\n%s", got)
	}
	if !strings.Contains(got, "BenchmarkB") || !strings.Contains(got, "WARN: regression") {
		t.Fatalf("regression not flagged:\n%s", got)
	}
	table, only, _ := strings.Cut(got, "row(s) only in ")
	if strings.Contains(table, "BenchmarkOldOnly") || strings.Contains(table, "BenchmarkNewOnly") {
		t.Fatalf("unmatched benchmarks should get no delta row:\n%s", got)
	}
	if !strings.Contains(got, "1 row(s) only in "+oldPath+", with no match in "+newPath+":\n  BenchmarkOldOnly\n") ||
		!strings.Contains(only, "1 row(s) only in "+newPath+", with no match in "+oldPath+":\n  BenchmarkNewOnly\n") {
		t.Fatalf("rows only one file has should be named:\n%s", got)
	}
	if !strings.Contains(got, "10->0") {
		t.Fatalf("allocs delta missing:\n%s", got)
	}
}

func TestRunCompareNoCommon(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", File{Results: []Result{{Name: "BenchmarkX", Procs: 1, NsPerOp: 1}}})
	newPath := writeFile(t, dir, "new.json", File{Results: []Result{{Name: "BenchmarkY", Procs: 1, NsPerOp: 1}}})
	var out strings.Builder
	if err := runCompare(oldPath, newPath, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no common benchmarks") {
		t.Fatalf("missing no-common notice:\n%s", out.String())
	}
}

func TestRunCompareMissingFile(t *testing.T) {
	if err := runCompare("does-not-exist.json", "also-missing.json", &strings.Builder{}); err == nil {
		t.Fatal("expected an error for missing input files")
	}
}

func TestLoadEmbeddedBefore(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "with-before.json", File{
		Generated: "now",
		Results:   []Result{{Name: "BenchmarkA", Procs: 1, NsPerOp: 50}},
		Before: &File{
			Generated: "then",
			Results:   []Result{{Name: "BenchmarkA", Procs: 1, NsPerOp: 100}},
		},
	})
	f, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Before == nil || f.Before.Generated != "then" || len(f.Before.Results) != 1 {
		t.Fatalf("before field not round-tripped: %+v", f.Before)
	}
}

// TestFoldRepeatedRuns checks that -count=N results of one benchmark
// fold into one record of medians with ns/op quartiles, in first-seen
// order, while a benchmark that ran once is kept as it is.
func TestFoldRepeatedRuns(t *testing.T) {
	const counted = `pkg: plb
BenchmarkStep/n=8-2   	 100	 400 ns/op	 16 B/op	 1 allocs/op	 3 wait/op
BenchmarkOnce-2       	  10	 900 ns/op
BenchmarkStep/n=8-2   	 100	 100 ns/op	 16 B/op	 1 allocs/op	 1 wait/op
BenchmarkStep/n=8-2   	 120	 300 ns/op	 32 B/op	 3 allocs/op	 2 wait/op
BenchmarkStep/n=8-2   	 100	 200 ns/op	 16 B/op	 1 allocs/op	 4 wait/op
BenchmarkStep/n=8-2   	  80	 500 ns/op	 16 B/op	 1 allocs/op	 5 wait/op
ok  	plb	1.0s
`
	results, err := parse(strings.NewReader(counted), nil)
	if err != nil {
		t.Fatal(err)
	}
	folded := fold(results)
	if len(folded) != 2 || folded[0].Name != "BenchmarkStep/n=8" || folded[1].Name != "BenchmarkOnce" {
		t.Fatalf("folded = %+v, want Step then Once", folded)
	}
	s := folded[0]
	if s.Runs != 5 || s.NsPerOp != 300 || s.NsQ1 != 200 || s.NsQ3 != 400 {
		t.Fatalf("ns/op fold = runs %d median %v band [%v, %v], want 5, 300, [200, 400]", s.Runs, s.NsPerOp, s.NsQ1, s.NsQ3)
	}
	if s.Iterations != 100 || s.BytesPerOp != 16 || s.AllocsPerOp != 1 || s.Extra["wait"] != 3 {
		t.Fatalf("medians = %+v", s)
	}
	if o := folded[1]; o.Runs != 0 || o.NsQ1 != 0 || o.NsPerOp != 900 {
		t.Fatalf("single run changed by fold: %+v", o)
	}
}

// TestRunCompareBands checks that folded benchmarks are flagged only
// when their quartile bands separate, whatever the medians say.
func TestRunCompareBands(t *testing.T) {
	dir := t.TempDir()
	band := func(name string, q1, med, q3 float64) Result {
		return Result{Name: name, Procs: 1, Runs: 10, NsQ1: q1, NsPerOp: med, NsQ3: q3}
	}
	oldPath := writeFile(t, dir, "old.json", File{Results: []Result{
		band("BenchmarkNoisy", 90, 100, 140),
		band("BenchmarkSlower", 90, 100, 110),
		band("BenchmarkFaster", 90, 100, 110),
	}})
	newPath := writeFile(t, dir, "new.json", File{Results: []Result{
		band("BenchmarkNoisy", 120, 130, 150),  // +30% median, bands overlap
		band("BenchmarkSlower", 111, 112, 113), // +12% median, bands separate
		band("BenchmarkFaster", 60, 70, 80),
	}})
	var out strings.Builder
	if err := runCompare(oldPath, newPath, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = line
		}
	}
	if strings.Contains(rows["BenchmarkNoisy"], "WARN") {
		t.Errorf("overlapping bands flagged: %s", rows["BenchmarkNoisy"])
	}
	if !strings.Contains(rows["BenchmarkSlower"], "WARN: regression (bands separate)") {
		t.Errorf("separated slower band not flagged: %s", rows["BenchmarkSlower"])
	}
	if !strings.Contains(rows["BenchmarkFaster"], "faster (bands separate)") {
		t.Errorf("separated faster band not reported: %s", rows["BenchmarkFaster"])
	}
}
