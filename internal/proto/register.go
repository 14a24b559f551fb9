package proto

import (
	"plb/internal/detect"
	"plb/internal/faults"
	"plb/internal/policy"
	"plb/internal/sim"
)

func init() {
	policy.Register(policy.Spec{
		Name:    "bfm98-dist",
		Aliases: []string{"proto"},
		Summary: "the paper's protocol as message-passing state machines over the in-memory bus; the only sim policy with a perturbable network",
		Caps:    policy.Caps{Backend: "sim", Faults: true, Detect: true, Churn: true},
		Install: func(cfg *sim.Config, p policy.Params) error {
			c := DefaultConfig(p.N)
			c.Seed = p.Seed
			var plan faults.Plan
			havePlan := false
			if p.Faults != "" {
				fp, err := faults.ParsePlan(p.Faults)
				if err != nil {
					return err
				}
				plan, havePlan = fp, true
			}
			if p.Churn != "" {
				cp, err := faults.ParseChurn(p.Churn)
				if err != nil {
					return err
				}
				if havePlan {
					plan = plan.Merge(cp)
				} else {
					plan = cp
				}
				havePlan = true
			}
			if havePlan {
				c.Faults = &plan
			}
			if p.Detect != "" {
				dc, err := detect.ParseConfig(p.Detect)
				if err != nil {
					return err
				}
				c.Detect = dc
			}
			b, err := New(p.N, c)
			if err != nil {
				return err
			}
			cfg.Balancer = b
			return nil
		},
	})
}
