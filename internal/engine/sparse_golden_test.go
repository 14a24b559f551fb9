package engine_test

import (
	"fmt"
	"testing"

	"plb/internal/core"
	"plb/internal/engine"
	"plb/internal/gen"
	"plb/internal/sim"
)

// The dense-vs-sparse equivalence suite. The sparse engine's whole
// contract is that event-driven stepping is an execution strategy, not
// a model change: every trajectory must be bit-identical to the dense
// lockstep machine's, which these tests check by comparing FNV
// trajectory digests across modes, worker counts, balancers, and
// fault/churn plans.

// equivMachine builds one machine for the equivalence suite:
// balancer bal ("bfm98" or "phaseless"), dense or sparse.
func equivMachine(t *testing.T, bal string, n, workers int, seed uint64, sparse bool) *sim.Machine {
	t.Helper()
	var b sim.Balancer
	var err error
	switch bal {
	case "bfm98":
		b, err = core.New(n, core.Config{Seed: seed})
	case "phaseless":
		b, err = core.NewPhaseless(n, seed)
	default:
		t.Fatalf("unknown balancer %q", bal)
	}
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1},
		Balancer: b, Seed: seed, Workers: workers, Sparse: sparse})
	if err != nil {
		t.Fatal(err)
	}
	m.Inject(0, 64)
	return m
}

// TestSparseReproducesPinnedGolden is the strongest single statement of
// the contract: a sparse run of the golden configuration reproduces the
// digest captured from the pre-engine-refactor dense tree, byte for
// byte. The sparse engine is not "approximately" the machine — it IS
// the machine.
func TestSparseReproducesPinnedGolden(t *testing.T) {
	b, err := core.New(goldenN, core.Config{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: goldenN, Model: gen.Single{P: 0.4, Eps: 0.1},
		Balancer: b, Seed: goldenSeed, Workers: 4, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Inject(0, 64)
	if !m.SparseActive() {
		t.Fatal("machine does not report sparse mode")
	}
	if got := snapshotDigest(t, m, goldenCoreSteps); got != goldenSimCore {
		t.Fatalf("sparse run diverged from the pinned dense golden: digest %s, want %s", got, goldenSimCore)
	}
}

// TestSparseDenseEquivalence is the acceptance matrix: bfm98 and
// phaseless at n=2^14, Workers in {1,2,8}, plain and under a fault
// plan (down oracle) and a churn plan (generation gate). Every cell
// compares full trajectory digests via the engine harness.
func TestSparseDenseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("n=2^14 matrix in -short mode")
	}
	const n = 1 << 14
	const steps = 192
	down := func(p int, now int64) bool { return p%97 == 3 && now%50 < 20 }
	genOff := func(p int, now int64) bool { return p%31 == 7 && now >= 40 && now < 120 }
	plans := []struct {
		name  string
		apply func(m *sim.Machine)
	}{
		{"plain", func(m *sim.Machine) {}},
		{"faulted", func(m *sim.Machine) { m.SetDown(down) }},
		{"churned", func(m *sim.Machine) { m.SetGenOff(genOff) }},
	}
	for _, bal := range []string{"bfm98", "phaseless"} {
		for _, workers := range []int{1, 2, 8} {
			for _, plan := range plans {
				name := fmt.Sprintf("%s/w%d/%s", bal, workers, plan.name)
				t.Run(name, func(t *testing.T) {
					dense := equivMachine(t, bal, n, workers, 7, false)
					sparse := equivMachine(t, bal, n, workers, 7, true)
					plan.apply(dense)
					plan.apply(sparse)
					dd := engine.TrajectoryDigest(dense, steps)
					sd := engine.TrajectoryDigest(sparse, steps)
					if dd != sd {
						t.Fatalf("trajectories diverged: dense %s, sparse %s", dd, sd)
					}
				})
			}
		}
	}
}

// TestSparseRandomizedEquivalence sweeps randomized small configs:
// varying n, worker counts, injection patterns and workload
// parameters, comparing full trajectories each time.
func TestSparseRandomizedEquivalence(t *testing.T) {
	models := []func() gen.Model{
		func() gen.Model { return gen.Single{P: 0.4, Eps: 0.1} },
		func() gen.Model { return gen.Single{P: 0.7, Eps: 0.2} },
		func() gen.Model { m, _ := gen.NewGeometric(2); return m },
		func() gen.Model { m, _ := gen.NewMulti([]float64{0.45, 0.25, 0.1, 0.05}); return m },
	}
	for i := 0; i < 8; i++ {
		i := i
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) {
			n := 256 << (i % 3) // 256, 512, 1024
			workers := []int{1, 8}[i%2]
			seed := uint64(100 + i)
			model := models[i%len(models)]
			build := func(sparse bool) *sim.Machine {
				var b sim.Balancer
				var err error
				if i%2 == 0 {
					b, err = core.New(n, core.Config{Seed: seed})
				} else {
					b, err = core.NewPhaseless(n, seed)
				}
				if err != nil {
					t.Fatal(err)
				}
				m, err := sim.New(sim.Config{N: n, Model: model(),
					Balancer: b, Seed: seed, Workers: workers, Sparse: sparse})
				if err != nil {
					t.Fatal(err)
				}
				// Uneven injections exercise the heavy index's transfer
				// and inject reclassification paths.
				m.Inject(i%n, 64+i*17)
				m.Inject((i*37)%n, 16)
				return m
			}
			dd := engine.TrajectoryDigest(build(false), 160)
			sd := engine.TrajectoryDigest(build(true), 160)
			if dd != sd {
				t.Fatalf("trajectories diverged: dense %s, sparse %s", dd, sd)
			}
		})
	}
}

// TestSparseCollectParity checks that the unified metrics a sparse run
// reports agree with the dense run's on everything the sparse engine
// claims to track, and that the sparse-only surface (no task records,
// sparse_* counters) is shaped as documented.
func TestSparseCollectParity(t *testing.T) {
	const n = 1 << 10
	dense := equivMachine(t, "bfm98", n, 4, 11, false)
	sparse := equivMachine(t, "bfm98", n, 4, 11, true)
	dense.Run(300)
	sparse.Run(300)
	dm, sm := dense.Collect(), sparse.Collect()
	if dm.Generated != sm.Generated || dm.Completed != sm.Completed || dm.TotalLoad != sm.TotalLoad {
		t.Fatalf("conservation mismatch: dense gen/done/queued %d/%d/%d, sparse %d/%d/%d",
			dm.Generated, dm.Completed, dm.TotalLoad, sm.Generated, sm.Completed, sm.TotalLoad)
	}
	if dm.MaxLoad != sm.MaxLoad {
		t.Fatalf("max load mismatch: dense %d, sparse %d", dm.MaxLoad, sm.MaxLoad)
	}
	if sm.Generated != sm.Completed+sm.TotalLoad {
		t.Fatalf("sparse conservation broken: %d != %d + %d", sm.Generated, sm.Completed, sm.TotalLoad)
	}
	if sm.Tasks != nil {
		t.Fatal("sparse mode must not carry task-lifetime records")
	}
	if sm.Extra["sparse"] != 1 {
		t.Fatalf("sparse run not labeled in Extra: %v", sm.Extra)
	}
	if sm.Extra["sparse_replayed"] == 0 {
		t.Fatalf("no analytic replay recorded: %v", sm.Extra)
	}
	if dense.SparseActive() || !sparse.SparseActive() {
		t.Fatal("SparseActive misreports mode")
	}
}
