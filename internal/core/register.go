package core

import (
	"plb/internal/policy"
	"plb/internal/sim"
)

// The paper's own configurations, registered as policies. None honors
// a fault plan: the sim realization is atomic and has no network to
// perturb (that is bfm98-dist's job, registered by internal/proto).

func init() {
	policy.Register(policy.Spec{
		Name:    "bfm98",
		Summary: "the paper's phase-based tree-growth balancer (atomic realization; T=(log log n)²)",
		Caps:    policy.Caps{Backend: "sim", Sparse: true},
		Install: installCore(false),
	})
	policy.Register(policy.Spec{
		Name:    "bfm98-pre",
		Summary: "bfm98 with the constant-factor pre-round heuristic enabled",
		Caps:    policy.Caps{Backend: "sim", Sparse: true},
		Install: installCore(true),
	})
	policy.Register(policy.Spec{
		Name:    "bfm98-phaseless",
		Aliases: []string{"phaseless"},
		Summary: "the self-clocked variant: initiators launch trees whenever local thresholds trip",
		Caps:    policy.Caps{Backend: "sim", Sparse: true},
		Install: func(cfg *sim.Config, p policy.Params) error {
			b, err := NewPhaseless(p.N, p.Seed)
			if err != nil {
				return err
			}
			cfg.Balancer = b
			return nil
		},
	})
}

func installCore(preRound bool) func(cfg *sim.Config, p policy.Params) error {
	return func(cfg *sim.Config, p policy.Params) error {
		c := DefaultConfig(p.N)
		if p.Scale > 1 {
			c = Config{Scale: p.Scale}
		}
		c.Seed = p.Seed
		c.PreRound = preRound
		b, err := New(p.N, c)
		if err != nil {
			return err
		}
		cfg.Balancer = b
		return nil
	}
}
