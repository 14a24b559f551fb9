package node

import (
	"testing"

	"plb/internal/transport"
)

// busTrans is a deterministic in-memory network for a whole fleet:
// every Send is delivered at the next Deliver, in send order, with no
// loss. One value serves every node; the test calls Deliver once per
// round, then ticks each node.
type busTrans struct {
	n         int
	next, cur [][]transport.Message
}

func newBus(n int) *busTrans {
	return &busTrans{n: n, next: make([][]transport.Message, n), cur: make([][]transport.Message, n)}
}

func (b *busTrans) N() int { return b.n }
func (b *busTrans) Send(m transport.Message) {
	if m.To >= 0 && int(m.To) < b.n {
		b.next[m.To] = append(b.next[m.To], m)
	}
}
func (b *busTrans) Deliver() {
	for p := range b.next {
		b.cur[p], b.next[p] = b.next[p], b.cur[p][:0]
	}
}
func (b *busTrans) Inbox(p int) []transport.Message { return b.cur[p] }
func (b *busTrans) Step() int64                     { return 0 }
func (b *busTrans) Stats() transport.Stats          { return transport.Stats{} }
func (b *busTrans) LocalAddr() string               { return "bus" }
func (b *busTrans) Close() error                    { return nil }

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

// TestFalseSuspicionIsNotAbsorbing runs an idle fault-free fleet on a
// lossless bus for 20 suspicion windows. Random heartbeat targeting
// leaves some alive peers silent past the window, so some false
// suspicions are expected; what must not happen is for them to become
// mutual and pile up. A node that stopped heartbeating the peers it
// suspects made every false suspicion mutual and permanent, until most
// of the fleet suspected most of the rest.
func TestFalseSuspicionIsNotAbsorbing(t *testing.T) {
	const n = 32
	bus := newBus(n)
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := New(bus, Config{ID: int32(i), N: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	window := nodes[0].det.Config().SuspectAfter
	var early int
	for tick := int64(1); tick <= 20*window; tick++ {
		bus.Deliver()
		for _, nd := range nodes {
			nd.Tick()
		}
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
