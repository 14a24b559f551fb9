package node

import "plb/internal/policy"

// The socket fleet registers as a policy so the command-line tools
// derive every cross-flag rule (faults yes, detect/churn no) from the
// same registry as every other strategy. Install is nil: the fleet is
// the sockets backend's built-in, constructed by cli's backend switch
// rather than wired into a sim.Config.
func init() {
	policy.Register(policy.Spec{
		Name:    "pairwise-sock",
		Summary: "pairwise rule over real sockets (in-process fleet or lbsimd daemons): heavy at 2T, probes one peer, ships half the load difference, capped at 64",
		Caps:    policy.Caps{Backend: "sockets", Faults: true},
	})
}
