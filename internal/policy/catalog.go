package policy

// Backend built-ins: strategies that exist only inside a specific
// backend and are constructed by that backend itself, not installed
// into a sim.Config. They are registered descriptor-only (Install ==
// nil) so capability validation and the policy listings cover every
// runnable name, not just the sim-substrate ones.

func init() {
	Register(Spec{
		Name:    "collision",
		Summary: "shmem-backend collision protocol: replicated-memory accesses resolved by the paper's collision game over module copies",
		Caps: Caps{
			Backends: []string{"shmem"},
		},
	})
}
