// bench_test.go wraps every reproduction experiment (E1..E14, one per
// theorem/claim of the paper — see DESIGN.md's per-experiment index)
// in a testing.B benchmark, plus micro-benchmarks of the hot paths.
//
//	go test -bench=. -benchmem
//
// Each BenchmarkE* iteration regenerates the experiment's table at
// quick scale; custom metrics surface the headline quantity so the
// paper's shape (who wins, by what factor) is visible straight from
// the bench output.
package plb_test

import (
	"strconv"
	"testing"

	"plb"
	"plb/internal/cli"
	"plb/internal/engine"
	"plb/internal/experiments"
	"plb/internal/gen"
	"plb/internal/node"
	"plb/internal/policy"
	"plb/internal/sim"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.RunConfig{Quick: true, Seed: 12345}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = 12345 + uint64(i)
		res, err := e.Run(cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1MaxLoadSingle(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2UnbalancedDistribution(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3HeavyLightCensus(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4CollisionProtocol(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5PartnerSearch(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6ExpectedRequests(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7WaitingTime(b *testing.B)            { benchExperiment(b, "E7") }
func BenchmarkE8CommunicationCost(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9GenerationModels(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Adversarial(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11Locality(b *testing.B)              { benchExperiment(b, "E11") }
func BenchmarkE12BaselineFaceoff(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13Recovery(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14Ablation(b *testing.B)              { benchExperiment(b, "E14") }
func BenchmarkE15StaticGames(b *testing.B)           { benchExperiment(b, "E15") }
func BenchmarkE16DistributedFidelity(b *testing.B)   { benchExperiment(b, "E16") }
func BenchmarkE17RecoveryTrajectory(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkE18WeightedExtension(b *testing.B)     { benchExperiment(b, "E18") }
func BenchmarkE19CollisionParams(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20Estimation(b *testing.B)            { benchExperiment(b, "E20") }
func BenchmarkE21FaultInjection(b *testing.B)        { benchExperiment(b, "E21") }
func BenchmarkE22SelfSpeedup(b *testing.B)           { benchExperiment(b, "E22") }
func BenchmarkE23FaultLatency(b *testing.B)          { benchExperiment(b, "E23") }
func BenchmarkE26PolicyShootout(b *testing.B)        { benchExperiment(b, "E26") }
func BenchmarkE27SparseFrontier(b *testing.B)        { benchExperiment(b, "E27") }
func BenchmarkE28ChaosLedger(b *testing.B)           { benchExperiment(b, "E28") }

// BenchmarkFleetTaskFlow measures end-to-end task flow through a fleet
// of node runtimes on the in-memory network and surfaces the sojourn
// statistics as custom metrics (mean_wait/op, p99_wait/op), so
// BENCH_plb.json records the latency surface next to the timing via
// benchjson's extra-unit capture.
func BenchmarkFleetTaskFlow(b *testing.B) {
	const n, steps = 256, 400
	model, err := gen.NewSingle(0.4, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	var meanWait, p99Wait float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := node.NewFleet(node.FleetConfig{N: n, Network: "mem", Seed: uint64(i + 1), Model: model})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := engine.Drive(f, engine.DriveConfig{Steps: steps})
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		ts := rep.Final.Tasks
		if ts == nil || ts.Completed == 0 {
			b.Fatal("fleet run completed no tasks")
		}
		meanWait += ts.MeanWait
		p99Wait += float64(ts.P99Wait)
	}
	b.ReportMetric(meanWait/float64(b.N), "mean_wait/op")
	b.ReportMetric(p99Wait/float64(b.N), "p99_wait/op")
}

// BenchmarkMachineStep measures raw simulator throughput
// (processor-steps per second) for the balanced and unbalanced system
// under the Single model, and for the planned-model walk in the
// lockstep-bursty benchmark workload's shape (bfm98 under the bursty
// adversary, one worker shard).
func BenchmarkMachineStep(b *testing.B) {
	for _, balanced := range []bool{false, true} {
		for _, n := range []int{1 << 10, 1 << 14} {
			name := "unbalanced/n=" + strconv.Itoa(n)
			if balanced {
				name = "bfm98/n=" + strconv.Itoa(n)
			}
			b.Run(name, func(b *testing.B) {
				model, err := plb.NewSingleModel(0.4, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := plb.MachineConfig{N: n, Model: model, Seed: 1}
				var m *plb.Machine
				if balanced {
					m, err = plb.NewBalancedMachine(cfg)
				} else {
					m, err = plb.NewMachine(cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "proc-steps/s")
			})
		}
	}
	const n = 1 << 16
	b.Run("bursty/n="+strconv.Itoa(n), func(b *testing.B) {
		model, weigher, err := cli.BuildWorkload("workload:arrivals=bursty", n, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.Config{N: n, Model: model, Weigher: weigher, Seed: 1, Workers: 1}
		if err := cli.InstallPolicy(&cfg, "bfm98", policy.Params{N: n, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.Steps(32) // the benchmark workload's warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Step()
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "proc-steps/s")
	})
}

// BenchmarkMachineStepWorkers measures full-machine step throughput of
// the paper's balancer across worker counts at the ISSUE's reference
// sizes — the self-speedup anchor recorded in BENCH_plb.json. The
// trajectory is bit-identical across the workers axis (see the golden
// worker-invariance tests); only the wall clock may differ.
func BenchmarkMachineStepWorkers(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 16, 1 << 18} {
		for _, workers := range []int{1, 2, 8} {
			name := "bfm98/n=" + strconv.Itoa(n) + "/workers=" + strconv.Itoa(workers)
			b.Run(name, func(b *testing.B) {
				model, err := plb.NewSingleModel(0.4, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				m, err := plb.NewBalancedMachine(plb.MachineConfig{N: n, Model: model, Seed: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				m.Inject(0, n/4) // give the balancer real work
				m.Steps(32)      // warm up past the first phases
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "proc-steps/s")
			})
		}
	}
}

// BenchmarkSparseStep measures steady-state step throughput of the
// paper's balancer in dense lockstep vs sparse event-driven mode at
// the frontier reference sizes. The two trajectories are bit-identical
// (see the sparse golden-digest suite); only per-step cost differs —
// dense sweeps all n processors every step, sparse touches the active
// set. The steps/s ratio between the paired sub-benchmarks is the
// sparse speedup tracked in BENCH_plb.json.
func BenchmarkSparseStep(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		for _, sparse := range []bool{false, true} {
			mode := "dense"
			if sparse {
				mode = "sparse"
			}
			b.Run("bfm98/n="+strconv.Itoa(n)+"/"+mode, func(b *testing.B) {
				model, err := gen.NewSingle(0.4, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := sim.Config{N: n, Model: model, Seed: 1, Sparse: sparse}
				if err := cli.InstallPolicy(&cfg, "bfm98", policy.Params{N: n, Seed: 1}); err != nil {
					b.Fatal(err)
				}
				m, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m.Inject(0, n/4) // give the balancer real work
				m.Steps(96)      // steady state: past the first phases and a full wheel lap
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}

// BenchmarkPolicyStep measures per-step cost of every registered
// installable policy on the same n=1024 Poisson machine — one
// sub-benchmark per registry entry, so BENCH_plb.json tracks the whole
// policy layer and a new registration is benchmarked automatically.
func BenchmarkPolicyStep(b *testing.B) {
	const n = 1 << 10
	for _, name := range cli.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			model, err := gen.NewSingle(0.4, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.Config{N: n, Model: model, Seed: 1}
			if err := cli.InstallPolicy(&cfg, name, policy.Params{N: n, Seed: 1}); err != nil {
				b.Fatal(err)
			}
			m, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			m.Inject(0, n/4) // give balancing policies real work
			m.Steps(32)      // warm up past the first phases
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "proc-steps/s")
		})
	}
}

// BenchmarkCollisionGame measures one full collision-protocol
// execution at the Lemma 1 operating point.
func BenchmarkCollisionGame(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			p := plb.Lemma1Params()
			nReq := n / (2 * p.A)
			reqs := make([]int32, nReq)
			for i := range reqs {
				reqs[i] = int32(i * (n / nReq))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := plb.RunCollision(n, reqs, p, uint64(i), 0)
				if !res.AllSatisfied {
					b.Fatal("collision protocol failed")
				}
			}
		})
	}
}
