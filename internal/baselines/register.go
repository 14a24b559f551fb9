package baselines

import (
	"plb/internal/policy"
	"plb/internal/sim"
)

// The Section 1.1 comparison family, registered as policies. All run
// on the sim substrate under any workload spec; none of them handles
// fault plans, detector tuning or churn (validation rejects those
// flags by capability, not by name).

func init() {
	policy.Register(policy.Spec{
		Name:    "unbalanced",
		Summary: "no balancing at all — Lemma 2's reference system",
		Caps:    policy.Caps{Backend: "sim"},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Balancer = Unbalanced{}
			return nil
		},
	})
	policy.Register(policy.Spec{
		Name:    "greedy1",
		Aliases: []string{"single-choice"},
		Summary: "single-choice balls-into-bins: every task lands on one uniform random processor",
		Caps:    policy.Caps{Backend: "sim", Router: true},
		Install: func(cfg *sim.Config, p policy.Params) error {
			g, err := NewGreedyD(1)
			if err != nil {
				return err
			}
			cfg.Placer = g
			return nil
		},
	})
	// The two-choice rule is ABKU's greedy process and, under
	// continuous generation, Mitzenmacher's supermarket model: one
	// entry, named after the model internal/supermarket solves.
	policy.Register(policy.Spec{
		Name:    "supermarket",
		Aliases: []string{"greedy2", "greedy-d", "power-of-d"},
		Summary: "Mitzenmacher's supermarket model (ABKU two-choice placement): each task joins the less loaded of 2 random probes",
		Caps:    policy.Caps{Backend: "sim", Router: true},
		Install: func(cfg *sim.Config, p policy.Params) error {
			g, err := NewGreedyD(2)
			if err != nil {
				return err
			}
			cfg.Placer = g
			return nil
		},
	})
	policy.Register(policy.Spec{
		Name:    "rsu",
		Summary: "Rudolph-Slivkin-Allalouf-Upfal pairwise equalization, every processor every step",
		Caps:    policy.Caps{Backend: "sim"},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Balancer = &RSU{Seed: p.Seed}
			return nil
		},
	})
	policy.Register(policy.Spec{
		Name:    "lm",
		Summary: "Lüling-Monien doubling trigger: equalize with k random partners when load doubles",
		Caps:    policy.Caps{Backend: "sim"},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Balancer = &LM{K: 2, Seed: p.Seed}
			return nil
		},
	})
	policy.Register(policy.Spec{
		Name:    "lauer",
		Summary: "Lauer's average-band activation with a known system average",
		Caps:    policy.Caps{Backend: "sim"},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Balancer = &Lauer{C: 2, Seed: p.Seed}
			return nil
		},
	})
	policy.Register(policy.Spec{
		Name:    "lauer-est",
		Summary: "Lauer's band activation with a sampled (k=32) average instead of an oracle",
		Caps:    policy.Caps{Backend: "sim"},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Balancer = &Lauer{C: 2, EstimateK: 32, Seed: p.Seed}
			return nil
		},
	})
	policy.Register(policy.Spec{
		Name:    "throwair",
		Summary: "the concluding-remarks strawman: periodically scatter the whole system load",
		Caps:    policy.Caps{Backend: "sim"},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Balancer = &ThrowAir{Interval: 4, Seed: p.Seed}
			return nil
		},
	})
	policy.Register(policy.Spec{
		Name:    "localsearch",
		Aliases: []string{"local-search"},
		Summary: "randomized local search: probe one partner, move a single task when the gap ≥ 2",
		Caps:    policy.Caps{Backend: "sim"},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Balancer = &LocalSearch{Seed: p.Seed}
			return nil
		},
	})
}
