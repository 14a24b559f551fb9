// Command lbsim runs one load-balancing simulation and prints a
// summary: max/total load, message cost, and task-lifetime statistics.
//
// Usage:
//
//	lbsim [-n 4096] [-steps 5000] [-policy bfm98] [-model single] [-seed 1]
//	lbsim -backend sockets -n 16 -steps 400
//	lbsim -list-policies        # the policy registry with capabilities
//	lbsim -json ...             # machine-readable summary (unified engine metrics)
//
// Backends: sim (default, lockstep), sockets (in-process fleet of
// socket-connected nodes; see also cmd/lbsimd for real daemons).
// Policies come from the internal/policy registry (-list-policies).
// Models: single, geometric, multi, burst, tree,
// hotspot, diurnal — or a declarative workload grammar spec such as
// -model "workload:arrivals=diurnal,rate=0.45,service=pareto(1.5)".
//
// Every backend is driven through engine.Drive, so the summary columns
// mean the same thing regardless of substrate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"plb/internal/cli"
	"plb/internal/engine"
	"plb/internal/stats"
	"plb/internal/trace"
)

// summary is the -json output: the engine drive report plus
// tool-level derived statistics. The task-lifetime fields mirror
// Report.Final.Tasks (kept at the top level for script compatibility)
// and are omitted for runs that do not track task identity (-sparse)
// or completed nothing.
type summary struct {
	engine.Report
	PaperT       int      `json:"paper_t"`
	Fairness     float64  `json:"jain_fairness"`
	MeanWait     *float64 `json:"mean_wait,omitempty"`
	P50Wait      *int64   `json:"p50_wait,omitempty"`
	P99Wait      *int64   `json:"p99_wait,omitempty"`
	MaxWait      *int64   `json:"max_wait,omitempty"`
	Locality     *float64 `json:"locality_fraction,omitempty"`
	MeanHops     *float64 `json:"mean_hops,omitempty"`
	TraceSamples int      `json:"trace_samples,omitempty"`
	TraceFile    string   `json:"trace_file,omitempty"`
}

func main() {
	var (
		n       = flag.Int("n", 4096, "number of processors")
		steps   = flag.Int("steps", 5000, "simulation steps")
		backend = flag.String("backend", "sim", "substrate: sim, sockets")
		policyF = flag.String("policy", "", "balancing policy from the registry (default bfm98; see -list-policies)")
		model   = flag.String("model", "single", "workload: single, geometric, multi, burst, tree, hotspot, diurnal, or a workload: grammar spec")
		seed    = flag.Uint64("seed", 1, "random seed")
		scale   = flag.Int("scale", 1, "multiplier on T=(log log n)^2 for the bfm98 config")
		wrk     = flag.Int("workers", 0, "worker shards (0 = GOMAXPROCS)")
		traceTo = flag.String("trace", "", "write a time-series CSV (step, max load, ...) to this file")
		every   = flag.Int("trace-every", 50, "trace sampling cadence in steps")
		hist    = flag.Bool("hist", false, "print an ASCII histogram of the final load distribution")
		jsonOut = flag.Bool("json", false, "print a machine-readable JSON summary instead of the text table")
		faultsF = flag.String("faults", "", "fault plan, e.g. lossy:0.05,crash:0.1@100-500,flap:k=4,period=200 (policy bfm98-dist or backend sockets; see docs/ALGORITHM.md)")
		detectF = flag.String("detect", "", "failure-detector tuning for a faulted bfm98-dist run, e.g. suspect=20,hb=4 (see docs/ALGORITHM.md)")
		churnF  = flag.String("churn", "", "membership schedule for bfm98-dist, e.g. churn:join=2,leave=2,period=400 or drain:0.25@1000 (see docs/ALGORITHM.md)")
		sparse  = flag.Bool("sparse", false, "event-driven stepping: only heavy/active processors execute per step, idle ones advance analytically (sim backend, sparse-capable policies; bit-identical trajectories)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the drive loop to this file (see docs/PERFORMANCE.md)")
		memProf = flag.String("memprofile", "", "write a post-run heap profile to this file (see docs/PERFORMANCE.md)")
		listenF = flag.String("listen", "", "socket flavor for -backend sockets: unix (default) or tcp")
		peersF  = flag.String("peers", "", "reserved for lbsimd; rejected here (lbsim always boots its own fleet)")
		listPol = flag.Bool("list-policies", false, "print the policy registry with capability columns and exit")
	)
	flag.Parse()

	if *listPol {
		fmt.Print(cli.ListPolicies())
		return
	}
	r, err := cli.BuildRunner(*backend, cli.ResolvePolicy(*policyF), *model, *n, *scale, *seed, *wrk, *faultsF, *detectF, *churnF, *sparse, *listenF, *peersF)
	if err != nil {
		fail(err)
	}
	if c, ok := r.(io.Closer); ok {
		defer c.Close()
	}

	dc := engine.DriveConfig{Steps: *steps}
	var rec *trace.Recorder
	if *traceTo != "" {
		rec = trace.NewRecorder(*every)
		dc.SampleEvery = *every
		dc.Observers = []engine.Observer{rec}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer f.Close()
	}
	rep, err := engine.Drive(r, dc)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fail(err)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(err)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	sum := summary{Report: rep, PaperT: stats.PaperT(*n), Fairness: stats.JainFairness(r.Loads())}
	if ts := rep.Final.Tasks; ts != nil && ts.Completed > 0 {
		sum.MeanWait, sum.P50Wait, sum.P99Wait, sum.MaxWait = &ts.MeanWait, &ts.P50Wait, &ts.P99Wait, &ts.MaxWait
		sum.Locality, sum.MeanHops = &ts.Locality, &ts.MeanHops
	}

	if rec != nil {
		f, err := os.Create(*traceTo)
		if err != nil {
			fail(err)
		}
		if err := rec.WriteCSV(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		sum.TraceSamples, sum.TraceFile = len(rec.Points()), *traceTo
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fail(err)
		}
		return
	}
	printText(r, sum, *steps, *hist)
}

// printText renders the human-readable summary from the unified
// metrics, with the sim backend's extra task-lifetime lines when
// available.
func printText(r engine.Runner, sum summary, steps int, hist bool) {
	meta, em := sum.Meta, sum.Final
	fmt.Printf("n=%d steps=%d backend=%s policy=%s model=%s seed=%d\n",
		meta.N, steps, meta.Backend, meta.Algorithm, meta.Model, meta.Seed)
	fmt.Printf("T=(log log n)^2 = %d\n", sum.PaperT)
	fmt.Printf("max load        = %d (%.2f x T)\n", em.MaxLoad, float64(em.MaxLoad)/float64(sum.PaperT))
	fmt.Printf("total load      = %d (%.2f per processor)\n", em.TotalLoad, float64(em.TotalLoad)/float64(meta.N))
	fmt.Printf("fairness        = %.4f (Jain index; 1 = perfectly even)\n", sum.Fairness)
	fmt.Printf("messages        = %d (%.2f per step)\n", em.Messages, float64(em.Messages)/float64(steps))
	fmt.Printf("balance actions = %d, tasks moved = %d\n", em.BalanceActions, em.TasksMoved)
	fmt.Printf("completed tasks = %d\n", em.Completed)
	if sum.MeanWait != nil {
		fmt.Printf("task wait       = mean %.2f, p50 <%d, p99 <%d, max %d steps\n",
			*sum.MeanWait, *sum.P50Wait, *sum.P99Wait, *sum.MaxWait)
		fmt.Printf("locality        = %.4f executed at origin (mean hops %.4f)\n", *sum.Locality, *sum.MeanHops)
	}
	printed := map[string]bool{}
	if _, ok := em.Extra["net_dropped"]; ok {
		// A faulted run surfaces the link counters unconditionally, so
		// degraded runs are diagnosable from the summary alone.
		fmt.Printf("link faults     = dropped %d, duplicated %d, delayed %d, crash-lost %d\n",
			em.Extra["net_dropped"], em.Extra["net_duplicated"], em.Extra["net_delayed"], em.Extra["net_crash_lost"])
		for _, k := range []string{"net_dropped", "net_duplicated", "net_delayed", "net_crash_lost"} {
			printed[k] = true
		}
	}
	if _, ok := em.Extra["det_suspicions"]; ok {
		lat := "-"
		if d := em.Extra["det_detections"]; d > 0 {
			lat = fmt.Sprintf("%.1f", float64(em.Extra["det_latency_sum"])/float64(d))
		}
		fmt.Printf("detector        = suspicions %d (%d false), readmissions %d, detections %d (mean latency %s), missed windows %d, heartbeats %d\n",
			em.Extra["det_suspicions"], em.Extra["det_false_suspicions"], em.Extra["det_readmissions"],
			em.Extra["det_detections"], lat, em.Extra["det_missed_windows"], em.Extra["hb_sent"])
		fmt.Printf("acked transfers = acked %d, retries %d, requeued %d, dup-dropped %d\n",
			em.Extra["xfer_acked"], em.Extra["xfer_retries"], em.Extra["xfer_requeued"], em.Extra["xfer_dup_dropped"])
		for _, k := range []string{"det_suspicions", "det_false_suspicions", "det_readmissions", "det_detections",
			"det_latency_sum", "det_missed_windows", "hb_sent",
			"xfer_acked", "xfer_retries", "xfer_requeued", "xfer_dup_dropped"} {
			printed[k] = true
		}
	}
	if _, ok := em.Extra["mem_epoch"]; ok {
		fmt.Printf("membership      = epoch %d, active %d (pool %d), joins %d (admitted %d), drains %d (departed %d)\n",
			em.Extra["mem_epoch"], em.Extra["mem_active"], em.Extra["mem_pool"],
			em.Extra["mem_joins"], em.Extra["mem_admits"],
			em.Extra["mem_drains"], em.Extra["mem_departs"])
		fmt.Printf("elasticity      = rebalance pushes %d, drained tasks handed off %d, stale-view losses %d\n",
			em.Extra["mem_rebalances"], em.Extra["mem_handoff"], em.Extra["mem_absent_lost"])
		for _, k := range []string{"mem_epoch", "mem_active", "mem_pool", "mem_joins", "mem_admits",
			"mem_drains", "mem_departs", "mem_rebalances", "mem_handoff", "mem_absent_lost"} {
			printed[k] = true
		}
	}
	rest := make([]string, 0, len(em.Extra))
	for _, k := range sortedKeys(em.Extra) {
		if !printed[k] {
			rest = append(rest, k)
		}
	}
	if len(rest) > 0 {
		fmt.Printf("backend extras  =")
		for _, k := range rest {
			fmt.Printf(" %s=%d", k, em.Extra[k])
		}
		fmt.Println()
	}
	if sum.TraceFile != "" {
		fmt.Printf("trace: %d samples -> %s (peak max load %d)\n", sum.TraceSamples, sum.TraceFile, sum.PeakMaxLoad)
	}
	if hist {
		fmt.Printf("\nload distribution (processors per load value):\n%s",
			stats.AsciiHistogram(r.Loads(), 2*sum.PaperT, 48))
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lbsim:", err)
	os.Exit(1)
}
