package node

import "testing"

// suspicionCensus counts the ordered pairs (i, j) where node i
// suspects j, and those whose reverse (j, i) is suspected too.
func suspicionCensus(nodes []*Node) (suspected, mutual int) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b || !a.Suspects(b.ID()) {
				continue
			}
			suspected++
			if b.Suspects(a.ID()) {
				mutual++
			}
		}
	}
	return suspected, mutual
}

// TestFalseSuspicionIsNotAbsorbing runs an idle fault-free fleet on the
// mem network for 20 suspicion windows. Random heartbeat targeting
// leaves some alive peers silent past the window, so some false
// suspicions are expected; what must not happen is for them to become
// mutual and pile up. A node that stopped heartbeating the peers it
// suspects made every false suspicion mutual and permanent, until most
// of the fleet suspected most of the rest.
func TestFalseSuspicionIsNotAbsorbing(t *testing.T) {
	const n = 32
	f, err := NewFleet(FleetConfig{N: n, Network: "mem", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var nodes []*Node
	for _, ep := range f.eps {
		nodes = append(nodes, ep.nodes...)
	}
	window := nodes[0].det.Config().SuspectAfter
	var early int
	for tick := int64(1); tick <= 20*window; tick++ {
		f.Steps(1)
		if tick == 5*window {
			early, _ = suspicionCensus(nodes)
		}
	}
	late, mutual := suspicionCensus(nodes)
	pairs := n * (n - 1)
	t.Logf("suspected %d at 5 windows, %d at 20 windows; mutual %d of %d ordered pairs", early, late, mutual, pairs)
	if 100*mutual > 3*pairs {
		t.Errorf("%d of %d ordered pairs mutually suspected, want at most 3%%", mutual, pairs)
	}
	if 2*late > 3*early {
		t.Errorf("suspicion keeps growing: %d pairs at 20 windows against %d at 5", late, early)
	}
}
