// Package integration holds cross-module invariant tests: every
// (algorithm, workload) combination must conserve tasks, keep
// metrics consistent, and stay deterministic.
package integration

import (
	"fmt"
	"testing"
	"testing/quick"

	"plb/internal/baselines"
	"plb/internal/core"
	"plb/internal/gen"
	"plb/internal/proto"
	"plb/internal/sim"
)

const n = 256

// builders enumerates every shipped balancing system.
func builders(t *testing.T, seed uint64) map[string]func(model gen.Model) (*sim.Machine, error) {
	t.Helper()
	mk := func(b sim.Balancer, p sim.Placer) func(model gen.Model) (*sim.Machine, error) {
		return func(model gen.Model) (*sim.Machine, error) {
			return sim.New(sim.Config{N: n, Model: model, Balancer: b, Placer: p, Seed: seed})
		}
	}
	g2, err := baselines.NewGreedyD(2)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := core.New(n, core.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cbPre, err := core.New(n, func() core.Config {
		c := core.DefaultConfig(n)
		c.Seed = seed
		c.PreRound = true
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	db, err := proto.New(n, proto.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(model gen.Model) (*sim.Machine, error){
		"bfm98":      mk(cb, nil),
		"bfm98-pre":  mk(cbPre, nil),
		"bfm98-dist": mk(db, nil),
		"unbalanced": mk(baselines.Unbalanced{}, nil),
		"greedy2":    mk(nil, g2),
		"rsu":        mk(&baselines.RSU{Seed: seed}, nil),
		"lm":         mk(&baselines.LM{K: 2, Seed: seed}, nil),
		"lauer":      mk(&baselines.Lauer{C: 2, Seed: seed}, nil),
		"throwair":   mk(&baselines.ThrowAir{Interval: 4, Seed: seed}, nil),
	}
}

// workloads enumerates every shipped generation model.
func workloads(t *testing.T, seed uint64) map[string]func() gen.Model {
	t.Helper()
	return map[string]func() gen.Model{
		"single": func() gen.Model {
			m, err := gen.NewSingle(0.4, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"geometric": func() gen.Model {
			m, err := gen.NewGeometric(3)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"multi": func() gen.Model {
			m, err := gen.NewMulti([]float64{0.5, 0.25, 0.1})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"burst": func() gen.Model {
			m, err := gen.NewAdversarial(gen.Burst{Targets: 4, Amount: 20, Window: 16}, 16, 40, int64(16*n), seed)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"tree": func() gen.Model {
			m, err := gen.NewAdversarial(gen.Tree{Spawn: 0.3, Branch: 2, Roots: 16}, 16, 40, int64(16*n), seed)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
}

// TestConservationMatrix runs every algorithm on every workload and
// checks the global conservation law Generated == Completed + Queued,
// plus metric sanity.
func TestConservationMatrix(t *testing.T) {
	for wName, wBuild := range workloads(t, 1) {
		for aName, aBuild := range builders(t, 1) {
			t.Run(fmt.Sprintf("%s/%s", aName, wName), func(t *testing.T) {
				m, err := aBuild(wBuild())
				if err != nil {
					t.Fatal(err)
				}
				m.Inject(0, 100) // some initial skew
				m.Run(400)
				rec := m.Recorder()
				if got, want := rec.Completed+m.TotalLoad(), m.Generated(); got != want {
					t.Fatalf("conservation violated: completed %d + queued %d != generated %d",
						rec.Completed, m.TotalLoad(), want)
				}
				met := m.Metrics()
				if met.Messages < 0 || met.TasksMoved < 0 {
					t.Fatalf("negative metrics: %+v", met)
				}
				if met.BalanceActions > 0 && met.TasksMoved == 0 && aName != "lauer" {
					t.Fatalf("balance actions without movement: %+v", met)
				}
				if rec.MaxWait < 0 || rec.LocalityFraction() < 0 || rec.LocalityFraction() > 1 {
					t.Fatalf("recorder out of range: %+v", rec)
				}
			})
		}
	}
}

// TestDeterminismMatrix replays every combination and demands
// identical outcomes.
func TestDeterminismMatrix(t *testing.T) {
	type fingerprint struct {
		max   int
		total int64
		met   sim.Metrics
	}
	run := func(aName, wName string) fingerprint {
		m, err := builders(t, 7)[aName](workloads(t, 7)[wName]())
		if err != nil {
			t.Fatal(err)
		}
		m.Run(300)
		return fingerprint{m.MaxLoad(), m.TotalLoad(), m.Metrics()}
	}
	for _, aName := range []string{"bfm98", "bfm98-dist", "greedy2", "rsu", "throwair"} {
		for _, wName := range []string{"single", "burst"} {
			a := run(aName, wName)
			b := run(aName, wName)
			if a != b {
				t.Fatalf("%s/%s diverged: %+v vs %+v", aName, wName, a, b)
			}
		}
	}
}

// TestEveryBalancerControlsHotspot checks that all real balancers beat
// the unbalanced system on a severe hotspot.
func TestEveryBalancerControlsHotspot(t *testing.T) {
	single, err := gen.NewSingle(0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	baseline := func() int {
		m, err := sim.New(sim.Config{N: n, Model: single, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		m.Inject(0, 2000)
		m.Run(300)
		return m.Load(0)
	}()
	for _, aName := range []string{"bfm98", "bfm98-dist", "rsu", "lm", "lauer", "throwair"} {
		t.Run(aName, func(t *testing.T) {
			m, err := builders(t, 3)[aName](single)
			if err != nil {
				t.Fatal(err)
			}
			m.Inject(0, 2000)
			m.Run(300)
			if got := m.Load(0); got >= baseline {
				t.Fatalf("%s left hotspot at %d (unbalanced: %d)", aName, got, baseline)
			}
		})
	}
}

// TestWorkerCountInvariance: results must be identical for any shard
// count (the balanced path too, since balancers run sequentially).
func TestWorkerCountInvariance(t *testing.T) {
	single, err := gen.NewSingle(0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (int, int64) {
		b, err := core.New(n, core.Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.Config{N: n, Model: single, Balancer: b, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		m.Inject(7, 50)
		m.Run(500)
		return m.MaxLoad(), m.TotalLoad()
	}
	max1, tot1 := run(1)
	for _, w := range []int{2, 4, 16} {
		maxW, totW := run(w)
		if maxW != max1 || totW != tot1 {
			t.Fatalf("workers=%d diverged from sequential: (%d,%d) vs (%d,%d)",
				w, maxW, totW, max1, tot1)
		}
	}
}

// TestQuickAtomicVsDistributed is the property-test form of E16: for
// random seeds, the atomic and distributed implementations with
// identical thresholds produce mean max loads within a small factor of
// each other on the same burst workload.
func TestQuickAtomicVsDistributed(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw) + 1
		dcfg := proto.DefaultConfig(n)
		dcfg.Seed = seed
		ccfg := core.Config{
			T:              16 * dcfg.PhaseLen,
			HeavyThreshold: dcfg.HeavyThreshold,
			LightThreshold: dcfg.LightThreshold,
			TransferAmount: dcfg.TransferAmount,
			PhaseLen:       dcfg.PhaseLen,
			TreeDepth:      dcfg.Levels,
			Collision:      dcfg.Collision,
			Seed:           seed,
		}
		burst := gen.Burst{Targets: 2, Amount: dcfg.HeavyThreshold + dcfg.TransferAmount, Window: 2 * dcfg.PhaseLen}
		mkModel := func() gen.Model {
			m, err := gen.NewAdversarial(burst, dcfg.PhaseLen, 4*dcfg.HeavyThreshold,
				int64(4*n*dcfg.PhaseLen), seed)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		meanMax := func(b sim.Balancer) float64 {
			m, err := sim.New(sim.Config{N: n, Model: mkModel(), Balancer: b, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			const phases = 40
			for i := 0; i < phases; i++ {
				m.Run(dcfg.PhaseLen)
				sum += float64(m.MaxLoad())
			}
			return sum / phases
		}
		cb, err := core.New(n, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		db, err := proto.New(n, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		a := meanMax(cb)
		d := meanMax(db)
		lo, hi := a, d
		if lo > hi {
			lo, hi = hi, lo
		}
		// Within 60% of each other (short runs are noisy; E16's long
		// run shows <1% agreement).
		return hi <= 1.6*lo+float64(dcfg.TransferAmount)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
