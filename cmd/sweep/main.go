// Command sweep regenerates figure-style data series as CSV.
//
// The paper has no numeric figures (it is an extended abstract), but
// its claims are curves; sweep produces the canonical ones:
//
//	sweep -figure maxload   # mean max load vs n, one column per algorithm
//	sweep -figure recovery  # max load over time after a worst-case pile
//	sweep -figure messages  # messages per step vs n, per algorithm
//
// Output goes to stdout (redirect to a .csv). Every run is driven
// through engine.Drive; the sampled columns come from the drive
// report's unified metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"plb/internal/cli"
	"plb/internal/engine"
	"plb/internal/gen"
	"plb/internal/policy"
	"plb/internal/sim"
	"plb/internal/stats"
)

type system struct {
	name  string
	build func(n int, seed uint64) (engine.Runner, error)
}

// defaultPolicies is the historical figure line-up.
const defaultPolicies = "bfm98,unbalanced,supermarket,rsu,lm,throwair"

// legacyLabels renames curves so they match the row labels of the
// E8/E12/E13/E17 tables in EXPERIMENTS.md.
var legacyLabels = map[string]string{"rsu": "rsu91", "lm": "lm93"}

func systems(policies string, seed uint64) ([]system, error) {
	model := gen.Single{P: 0.4, Eps: 0.1}
	var out []system
	for _, raw := range strings.Split(policies, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		name, ok := policy.Canonical(raw)
		if !ok {
			return nil, fmt.Errorf("unknown policy %q (have %v)", raw, cli.PolicyNames())
		}
		label := legacyLabels[name]
		if label == "" {
			label = name
		}
		install := name
		out = append(out, system{label, func(n int, seed uint64) (engine.Runner, error) {
			cfg := sim.Config{N: n, Model: model, Seed: seed}
			if err := cli.InstallPolicy(&cfg, install, policy.Params{N: n, Seed: seed}); err != nil {
				return nil, err
			}
			return sim.New(cfg)
		}})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -policies list")
	}
	return out, nil
}

func main() {
	var (
		figure   = flag.String("figure", "maxload", "which series: maxload, recovery, messages")
		seed     = flag.Uint64("seed", 1, "random seed")
		steps    = flag.Int("steps", 3000, "steps per run (maxload/messages)")
		maxN     = flag.Int("maxn", 1<<15, "largest n in the sweep")
		policies = flag.String("policies", defaultPolicies, "comma-separated registry policies, one curve each")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (see docs/PERFORMANCE.md)")
		memProf  = flag.String("memprofile", "", "write a post-sweep heap profile to this file (see docs/PERFORMANCE.md)")
	)
	flag.Parse()

	sys, err := systems(*policies, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}()
	}
	switch *figure {
	case "maxload", "messages":
		sweepByN(sys, *figure, *seed, *steps, *maxN)
	case "recovery":
		recoverySeries(sys, *seed)
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown figure %q\n", *figure)
		os.Exit(2)
	}
}

// sweepByN prints one row per n, one column per algorithm. Each cell
// is one engine.Drive: a warmup drive to read the pre-sampling message
// count, then a sampled drive whose mean max load / message delta
// feeds the cell. The step batching (one warm chunk, then ten
// gap-sized chunks) matches the historical manual loop, so the series
// are bit-identical to pre-engine output.
func sweepByN(sys []system, metric string, seed uint64, steps, maxN int) {
	fmt.Print("n,T")
	for _, s := range sys {
		fmt.Printf(",%s", s.name)
	}
	fmt.Println()
	for n := 1 << 9; n <= maxN; n <<= 1 {
		fmt.Printf("%d,%d", n, stats.PaperT(n))
		for _, s := range sys {
			r, err := s.build(n, seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			warm := steps / 4
			warmRep, err := engine.Drive(r, engine.DriveConfig{Steps: warm})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			before := warmRep.Final.Messages
			gap := (steps - warm) / 10
			rep, err := engine.Drive(r, engine.DriveConfig{Steps: 10 * gap, SampleEvery: gap})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			switch metric {
			case "maxload":
				fmt.Printf(",%.2f", rep.MeanMaxLoad)
			case "messages":
				msgs := rep.Final.Messages - before
				fmt.Printf(",%.2f", float64(msgs)/float64(steps-warm))
			}
		}
		fmt.Println()
	}
}

// recoverySeries prints max load over time after a worst-case pile:
// one engine.Drive per algorithm at the sampling cadence, with an
// observer collecting that algorithm's column.
func recoverySeries(sys []system, seed uint64) {
	const n = 1 << 10
	const pile = 16 * n
	const horizon = 20000
	const every = 100
	columns := make([][]int64, len(sys))
	for i, s := range sys {
		r, err := s.build(n, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		r.(*sim.Machine).Inject(0, pile)
		col := &columns[i]
		if _, err := engine.Drive(r, engine.DriveConfig{
			Steps:       horizon,
			SampleEvery: every,
			Observers: []engine.Observer{engine.ObserverFunc(func(_ engine.Runner, m engine.Metrics) {
				*col = append(*col, m.MaxLoad)
			})},
		}); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}
	fmt.Print("step")
	for _, s := range sys {
		fmt.Printf(",%s", s.name)
	}
	fmt.Println()
	for row := 0; row < horizon/every; row++ {
		fmt.Printf("%d", (row+1)*every)
		for _, col := range columns {
			fmt.Printf(",%d", col[row])
		}
		fmt.Println()
	}
}
