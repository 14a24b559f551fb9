// Command benchjson converts `go test -bench` output into a
// machine-readable JSON file while passing the text through unchanged,
// so it can sit at the end of a benchmark pipe:
//
//	go test -bench=. -benchmem ./... | benchjson -o BENCH_plb.json
//
// The JSON carries one record per benchmark (name, parallelism suffix,
// iterations, ns/op, and the -benchmem B/op and allocs/op when present)
// plus the host Go environment — enough for a CI artifact that trend
// dashboards or quick diffs can consume without re-parsing the text
// format. Repeated results of one benchmark (go test -count=N) fold
// into one record of medians, with the ns/op quartiles beside them:
//
//	go test -run '^$' -bench 'MachineStep' -count 10 . | benchjson -o rungs.json
//
// and -compare flags a folded benchmark only when the quartile bands of
// the two files do not overlap.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark measurement.
type Result struct {
	// Name is the benchmark name without the -P parallelism suffix.
	Name string `json:"name"`
	// Package is the Go package the benchmark ran in (from the
	// surrounding "pkg:" / "ok" lines; empty if not determinable).
	Package string `json:"package,omitempty"`
	// Procs is the GOMAXPROCS suffix (1 if absent).
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Runs counts the results folded into this record (0 for a single
	// result). With Runs > 1 every measurement is the median over the
	// runs, and [NsQ1, NsQ3] is the interquartile band of ns/op.
	Runs int     `json:"runs,omitempty"`
	NsQ1 float64 `json:"ns_q1,omitempty"`
	NsQ3 float64 `json:"ns_q3,omitempty"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// Extra carries custom b.ReportMetric units (e.g. the experiment
	// benchmarks' mean_wait/op and p99_wait/op task-latency metrics),
	// keyed by the unit string with the trailing "/op" trimmed.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File is the JSON document benchjson writes.
type File struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Generated string   `json:"generated"`
	Results   []Result `json:"results"`
	// Before optionally carries the previous baseline (-before), so a
	// committed file documents its own before/after delta.
	Before *File `json:"before,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_plb.json", "output JSON path")
	before := flag.String("before", "", "prior benchmark JSON to embed as the 'before' field")
	compare := flag.Bool("compare", false, "compare two benchmark JSON files: benchjson -compare old.json new.json (prints a delta table; regressions warn, exit stays 0; benchmarks folded from -count=N on both sides are flagged only when their quartile bands separate)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	results, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc := File{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Results:   fold(results),
	}
	if *before != "" {
		prev, err := load(*before)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		prev.Before = nil // one level of history, no recursion
		doc.Before = prev
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d results (%d benchmarks) -> %s\n", len(results), len(doc.Results), *out)
}

// fold merges the repeated results of each benchmark (go test -count=N)
// into one record, in first-seen order: every measurement becomes its
// median, and ns/op also gets its quartiles and the run count. A
// benchmark that ran once is kept as it is.
func fold(results []Result) []Result {
	type key struct {
		pkg, name string
		procs     int
	}
	var order []key
	groups := make(map[key][]Result)
	for _, r := range results {
		k := key{r.Package, r.Name, r.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		median := func(get func(Result) float64) float64 {
			xs := make([]float64, len(g))
			for i, r := range g {
				xs[i] = get(r)
			}
			return quantile(xs, 0.5)
		}
		ns := make([]float64, len(g))
		for i, r := range g {
			ns[i] = r.NsPerOp
		}
		f := g[0]
		f.Runs = len(g)
		f.NsPerOp, f.NsQ1, f.NsQ3 = quantile(ns, 0.5), quantile(ns, 0.25), quantile(ns, 0.75)
		f.Iterations = int64(math.Round(median(func(r Result) float64 { return float64(r.Iterations) })))
		f.BytesPerOp = int64(math.Round(median(func(r Result) float64 { return float64(r.BytesPerOp) })))
		f.AllocsPerOp = int64(math.Round(median(func(r Result) float64 { return float64(r.AllocsPerOp) })))
		f.Extra = nil
		for _, r := range g {
			for unit := range r.Extra {
				if f.Extra == nil {
					f.Extra = make(map[string]float64)
				}
				f.Extra[unit] = median(func(r Result) float64 { return r.Extra[unit] })
			}
		}
		out = append(out, f)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the bench harness's rule). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// load reads a benchmark JSON file.
func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// regressThreshold is the ns/op growth beyond which a comparison row of
// single runs is flagged. Single-run benches on shared CI hosts jitter;
// the threshold keeps the warn-only signal from crying wolf on noise.
const regressThreshold = 0.15

// verdict flags one comparison row. When both sides were folded from
// repeated runs, a change counts only if the quartile bands separate:
// the new Q1 above the old Q3 is a regression, the new Q3 below the old
// Q1 an improvement, and overlapping bands are noise whatever the
// medians say. Otherwise the single-run threshold applies.
func verdict(or, nr Result) (flag string, regressed bool) {
	if or.Runs > 1 && nr.Runs > 1 {
		switch {
		case nr.NsQ1 > or.NsQ3:
			return "  WARN: regression (bands separate)", true
		case nr.NsQ3 < or.NsQ1:
			return "  faster (bands separate)", false
		}
		return "", false
	}
	if nr.NsPerOp/or.NsPerOp-1 > regressThreshold {
		return "  WARN: regression", true
	}
	return "", false
}

// runCompare prints a benchstat-style delta table of new vs old, with
// the ns/op quartile bands of folded benchmarks, then names the rows
// only one file has: old rows that match no new benchmark are stale (a
// deleted or renamed benchmark still in the baseline), new rows are
// missing from the baseline. Regressions are flagged in the table and
// summarized on stderr, but never change the exit code — the committed
// baseline moves only when a human decides it should.
func runCompare(oldPath, newPath string, w io.Writer) error {
	oldF, err := load(oldPath)
	if err != nil {
		return err
	}
	newF, err := load(newPath)
	if err != nil {
		return err
	}
	type key struct {
		name  string
		procs int
	}
	oldBy := make(map[key]Result, len(oldF.Results))
	for _, r := range oldF.Results {
		oldBy[key{r.Name, r.Procs}] = r
	}
	newBy := make(map[key]bool, len(newF.Results))
	for _, r := range newF.Results {
		newBy[key{r.Name, r.Procs}] = true
	}
	var onlyOld, onlyNew []string
	for _, r := range oldF.Results {
		if !newBy[key{r.Name, r.Procs}] {
			onlyOld = append(onlyOld, rowName(r))
		}
	}
	fmt.Fprintf(w, "benchjson compare: %s (old, %s) vs %s (new, %s)\n",
		oldPath, oldF.Generated, newPath, newF.Generated)
	fmt.Fprintf(w, "%-64s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")
	regressions := 0
	matched := 0
	for _, nr := range newF.Results {
		or, ok := oldBy[key{nr.Name, nr.Procs}]
		if !ok {
			onlyNew = append(onlyNew, rowName(nr))
		}
		if !ok || or.NsPerOp == 0 {
			continue
		}
		matched++
		delta := nr.NsPerOp/or.NsPerOp - 1
		flag, regressed := verdict(or, nr)
		if regressed {
			regressions++
		}
		allocs := fmt.Sprintf("%d->%d", or.AllocsPerOp, nr.AllocsPerOp)
		if nr.AllocsPerOp == or.AllocsPerOp {
			allocs = fmt.Sprintf("%d", nr.AllocsPerOp)
		}
		bands := ""
		if or.Runs > 1 && nr.Runs > 1 {
			bands = fmt.Sprintf("  [%.4g, %.4g] -> [%.4g, %.4g]", or.NsQ1, or.NsQ3, nr.NsQ1, nr.NsQ3)
		}
		fmt.Fprintf(w, "%-64s %14.1f %14.1f %+7.1f%% %10s%s%s\n",
			nr.Name, or.NsPerOp, nr.NsPerOp, delta*100, allocs, bands, flag)
	}
	if matched == 0 {
		fmt.Fprintln(w, "(no common benchmarks)")
	}
	for _, only := range []struct {
		path, other string
		rows        []string
	}{{oldPath, newPath, onlyOld}, {newPath, oldPath, onlyNew}} {
		if len(only.rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "%d row(s) only in %s, with no match in %s:\n", len(only.rows), only.path, only.other)
		for _, name := range only.rows {
			fmt.Fprintf(w, "  %s\n", name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed: quartile bands separate, or a single run grew more than %.0f%% (warn-only)\n",
			regressions, regressThreshold*100)
	}
	return nil
}

// rowName prints a result's benchmark as go test does, with the -P
// parallelism suffix when P is not 1.
func rowName(r Result) string {
	if r.Procs == 1 {
		return r.Name
	}
	return fmt.Sprintf("%s-%d", r.Name, r.Procs)
}

// parse scans go-test benchmark output from r, echoing every line to
// echo, and returns the parsed benchmark results.
func parse(r io.Reader, echo io.Writer) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "ok  "), strings.HasPrefix(line, "ok \t"):
			pkg = ""
		}
		if res, ok := parseLine(line, pkg); ok {
			results = append(results, res)
		}
	}
	return results, sc.Err()
}

// parseLine parses one "BenchmarkX-8  N  ns/op [B/op allocs/op]" line.
func parseLine(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	res := Result{Name: fields[0], Procs: 1, Package: pkg}
	if i := strings.LastIndex(fields[0], "-"); i > 0 {
		if p, err := strconv.Atoi(fields[0][i+1:]); err == nil && p > 0 {
			res.Name, res.Procs = fields[0][:i], p
		}
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iter
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp, seen = v, true
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			// Custom units (b.ReportMetric) end in "/op"; anything else
			// (e.g. MB/s throughput) is ignored as before.
			if strings.HasSuffix(unit, "/op") {
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[strings.TrimSuffix(unit, "/op")] = v
			}
		}
	}
	return res, seen
}
