// Command bench is the repository's end-to-end benchmark. It drives the
// protocol through both of its runtimes — the lockstep simulator
// (sim + core) and a socket fleet of node runtimes (node + socktrans +
// wire) — on four named workloads, checks that every run's outputs are
// correct before reporting a number, and prints every metric by name
// and unit. See README.md for the workloads, metrics and how to run,
// trace and compare.
//
//	bash bench/run.sh --workload fleet-skew --seed 1 --seconds 15 --trace 0
//	cd bench && go run . -seed 1 -o r.json          # every workload
//	cd bench && go run . compare -base 'a*.json' -head 'b*.json'
//
// Each workload runs in a child process of its own, so its set-up, CPU
// time and peak memory are its own.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one named set of inputs: exactly one of lock and fleet.
type workload struct {
	name  string
	lock  *lockstepSpec
	fleet *fleetSpec
}

// workloadList returns the benchmark's workloads, or their toy-scale
// versions (n = 2^10 lockstep, n = 8 fleets) for the smoke test.
func workloadList(toy bool) []workload {
	bursty, sparse, fleetN, hot := 1<<16, 1<<20, 128, 8
	if toy {
		bursty, sparse, fleetN, hot = 1<<10, 1<<10, 8, 1
	}
	// A set-up of tens of milliseconds is repeated 21 times: the first
	// few fleet boots run slow while the process warms up, and the
	// median has to sit well past them. The sparse machine takes about
	// 1.8 s to build and is built 5 times.
	return []workload{
		{name: "lockstep-bursty", lock: &lockstepSpec{n: bursty, model: "workload:arrivals=bursty", warmup: 32, check: 512, setups: 21}},
		{name: "lockstep-sparse", lock: &lockstepSpec{n: sparse, model: "single", sparse: true, warmup: 96, check: 64, setups: 5}},
		{name: "fleet-uniform", fleet: &fleetSpec{n: fleetN, endpoints: 2, model: "workload:arrivals=poisson,rate=0.3", setups: 21}},
		{name: "fleet-skew", fleet: &fleetSpec{n: fleetN, endpoints: 2, model: fmt.Sprintf(
			"workload:arrivals=flash,rate=0.3,spike=1,targets=%d,period=200,width=50,service=pareto(1.5)", hot), setups: 21}},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloadList(false) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// pinsJSON holds the seed-1 digests of the lockstep check copies, keyed
// by workload name ("@toy" for the toy scale).
//
//go:embed pins.json
var pinsJSON []byte

// runConfig is what one workload run needs besides its spec.
type runConfig struct {
	seed   uint64
	window time.Duration
	traced bool
	toy    bool   // toy-scale workloads: check the "@toy" pins
	spans  string // JSONL path for kept spans; "" writes none
	pins   map[string]string
}

func (rc runConfig) pinKey(name string) string {
	if rc.toy {
		return name + "@toy"
	}
	return name
}

// result is what a workload child reports to the parent: every value
// it measured, keyed by metric name.
type result struct {
	Correct   bool               `json:"correct"`
	Failure   string             `json:"failure,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []string           `json:"checks"`
	Values    map[string]float64 `json:"values"`
}

// checkError is a failed correctness check, named so a failing run
// says which check broke.
type checkError struct{ check, detail string }

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.detail }

func checkFailed(check, format string, args ...any) error {
	return &checkError{check: check, detail: fmt.Sprintf(format, args...)}
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, rc runConfig) (*result, error) {
	if rc.traced && rc.window <= 2*traceBlock {
		return nil, fmt.Errorf("a traced run needs a window longer than two %v trace blocks", traceBlock)
	}
	var (
		res *result
		err error
	)
	if w.lock != nil {
		res, err = runLockstep(w.name, *w.lock, rc)
	} else {
		res, err = runFleet(w.name, *w.fleet, rc)
	}
	if err != nil {
		return nil, err
	}
	if res.Values["proc.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	res.Correct = true
	return res, nil
}

// benchConfig is BENCHMARK.json.
type benchConfig struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadConfig reads BENCHMARK.json from the repository root; the
// benchmark runs from the root or from bench/.
func loadConfig() (*benchConfig, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	var cfg benchConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return &cfg, nil
}

// notApplicable reports whether metric belongs to a layer the workload
// does not run; such metrics read 0.
func notApplicable(w workload, metric string) bool {
	skip := []string{"sim.", "core."}
	if w.lock != nil {
		skip = []string{"node.", "socktrans.", "wire.", "loadgen."}
	}
	for _, p := range skip {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the end-to-end metrics (untraced run) or the
// per-layer ones (traced run) out of a result, with their units.
func selectMetrics(cfg *benchConfig, w workload, res *result, traced bool) (map[string]metricOut, []string, error) {
	defs := cfg.EndToEnd
	if traced {
		defs = cfg.PerLayer
	}
	out := make(map[string]metricOut, len(defs))
	var order []string
	for _, d := range defs {
		v, ok := res.Values[d.Name]
		if !ok && !notApplicable(w, d.Name) {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
		order = append(order, d.Name)
	}
	return out, order, nil
}

// summaryLine is the one-line JSON result a single-workload run ends
// with.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// workloadOut is one workload's record in a results file.
type workloadOut struct {
	summaryLine
	Checks []string `json:"checks"`
}

// resultsFile is what -o writes and compare reads.
type resultsFile struct {
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       envInfo                `json:"env"`
	Workloads map[string]workloadOut `json:"workloads"`
}

type envInfo struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// childTimeout bounds one workload child; a run must end within 180 s.
const childTimeout = 170 * time.Second

// runChild runs one workload in a child process of this executable and
// returns its result. A child that fails a check returns its result
// (Correct false) together with the error.
func runChild(w workload, rc runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name,
		"-seed", strconv.FormatUint(rc.seed, 10),
		"-seconds", strconv.FormatFloat(rc.window.Seconds(), 'g', -1, 64),
		"-trace", "0"}
	if rc.traced {
		args[len(args)-1] = "1"
	}
	if rc.spans != "" {
		args = append(args, "-spans", rc.spans)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if perr := json.Unmarshal(lines[len(lines)-1], &res); perr != nil {
		return nil, fmt.Errorf("%s: child: %v (no result: %v)", w.name, runErr, perr)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s: %s", w.name, res.Failure)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: child: %w", w.name, runErr)
	}
	return &res, nil
}

// childMain runs one workload in this process and prints its result as
// the last line of standard output.
func childMain(w workload, rc runConfig) int {
	res, err := runWorkload(w, rc)
	var ce *checkError
	switch {
	case errors.As(err, &ce):
		res = &result{Failure: err.Error()}
	case err != nil:
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		wname   = flag.String("workload", "", "run only this workload (default: every workload)")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "measured window per run in seconds (0: run_seconds from BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the kept spans to this JSONL file")
		outPath = flag.String("o", "", "write the results as JSON to this file")
		child   = flag.Bool("child", false, "run one workload in this process (how the parent runs each workload)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(os.Stderr, "bench: pins.json:", err)
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, spans: *spans, pins: pins}

	if *child {
		w, err := findWorkload(*wname)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		os.Exit(childMain(w, rc))
	}
	if err := parentMain(*wname, *outPath, rc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// parentMain runs the chosen workloads, each in its own child process,
// prints every metric, and for a single workload ends with the one-line
// JSON summary {"correct", "attempted", "failed", "metrics"}.
func parentMain(wname, outPath string, rc runConfig) error {
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	if rc.window <= 0 {
		rc.window = time.Duration(cfg.RunSeconds) * time.Second
	}
	ws := workloadList(false)
	if wname != "" {
		w, err := findWorkload(wname)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	rf := resultsFile{Seed: rc.seed, Seconds: rc.window.Seconds(), Trace: rc.traced,
		Env:       envInfo{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Workloads: map[string]workloadOut{}}
	var failures []string
	var last workloadOut
	for _, w := range ws {
		res, runErr := runChild(w, rc)
		if res == nil {
			return runErr
		}
		wo := workloadOut{summaryLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: map[string]metricOut{}}, res.Checks}
		if runErr != nil {
			failures = append(failures, runErr.Error())
		} else {
			var order []string
			if wo.Metrics, order, err = selectMetrics(cfg, w, res, rc.traced); err != nil {
				return err
			}
			for _, name := range order {
				m := wo.Metrics[name]
				fmt.Printf("%-16s %-40s %14.6g %s\n", w.name, name, m.Value, m.Unit)
			}
		}
		rf.Workloads[w.name] = wo
		last = wo
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(ws) == 1 {
		line, err := json.Marshal(last.summaryLine)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}
