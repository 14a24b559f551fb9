package static

import (
	"plb/internal/policy"
	"plb/internal/sim"
	"plb/internal/xrand"
)

// RoundRobin is the deterministic task-allocation baseline: a global
// dispatcher hands task i to processor i mod n. One message per task,
// zero randomness, perfect spread of the *count* of tasks — which is
// exactly why it is the interesting control next to the randomized
// routers: under uniform arrivals and constant service it matches
// least-loaded routing, and only heterogeneous service times or
// skewed arrivals separate them (the E26 shootout measures where).
type RoundRobin struct {
	next int
}

var _ sim.Placer = (*RoundRobin)(nil)

// Name implements sim.Placer.
func (rr *RoundRobin) Name() string { return "rr" }

// Init implements sim.Placer.
func (rr *RoundRobin) Init(*sim.Machine) { rr.next = 0 }

// Place implements sim.Placer.
func (rr *RoundRobin) Place(m *sim.Machine, _ int, _ *xrand.Stream) int {
	dest := rr.next
	rr.next++
	if rr.next == m.N() {
		rr.next = 0
	}
	m.AddMessages(1) // one dispatch message per task
	return dest
}

func init() {
	policy.Register(policy.Spec{
		Name:    "rr",
		Aliases: []string{"round-robin"},
		Summary: "global round-robin dispatch: task i to processor i mod n, one message per task",
		Caps:    policy.Caps{Backend: "sim", Router: true},
		Install: func(cfg *sim.Config, p policy.Params) error {
			cfg.Placer = &RoundRobin{}
			return nil
		},
	})
}
