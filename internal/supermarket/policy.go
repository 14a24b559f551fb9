package supermarket

import (
	"fmt"

	"plb/internal/policy"
	"plb/internal/sim"
	"plb/internal/xrand"
)

// PowerOfD is the discrete-time realization of the supermarket model
// this package solves analytically: every generated task samples D
// queues independently and uniformly at random and joins the shortest
// (ties toward the first probe). Registered as the "supermarket"
// policy so the measured process sits in the same tables as the
// mean-field Tail/ExpectedMaxLoad predictions.
//
// Communication: 2*D messages per task, Theta(n) per step under
// constant-rate generation — the cost the paper's protocol avoids.
type PowerOfD struct {
	// D is the number of random choices per task; must be >= 1.
	D int

	buf []int
}

var _ policy.Router = (*PowerOfD)(nil)

// NewPowerOfD validates d and returns the router.
func NewPowerOfD(d int) (*PowerOfD, error) {
	if d < 1 {
		return nil, fmt.Errorf("supermarket: PowerOfD needs d >= 1, got %d", d)
	}
	return &PowerOfD{D: d}, nil
}

// Name implements policy.Router.
func (g *PowerOfD) Name() string { return fmt.Sprintf("supermarket(d=%d)", g.D) }

// Init implements policy.Router.
func (g *PowerOfD) Init(v policy.View) {
	d := g.D
	if d > v.N() {
		d = v.N()
	}
	g.buf = make([]int, d)
}

// Route implements policy.Router.
func (g *PowerOfD) Route(v policy.View, _ int, r *xrand.Stream) int {
	d := len(g.buf)
	r.SampleDistinct(g.buf, d, v.N(), -1)
	v.AddMessages(int64(2 * d))
	best := g.buf[0]
	bestLoad := v.Load(best)
	for _, p := range g.buf[1:] {
		if l := v.Load(p); l < bestLoad {
			best, bestLoad = p, l
		}
	}
	return best
}

func init() {
	policy.Register(policy.Spec{
		Name:    "supermarket",
		Aliases: []string{"power-of-d"},
		Summary: "Mitzenmacher's supermarket model, measured: join the shortest of d=2 sampled queues",
		Caps:    policy.Caps{Backend: "sim", Router: true},
		Install: func(cfg *sim.Config, p policy.Params) error {
			g, err := NewPowerOfD(2)
			if err != nil {
				return err
			}
			cfg.Placer = policy.AsPlacer(g)
			return nil
		},
	})
}
