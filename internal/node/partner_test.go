package node

import (
	"fmt"
	"testing"

	"plb/internal/detect"
	"plb/internal/transport"
	"plb/internal/xrand"
)

// nullTrans is a transport stub that discards every send, so a node's
// own cost can be measured without a network.
type nullTrans struct{ n int }

func (s nullTrans) N() int                        { return s.n }
func (s nullTrans) Send(transport.Message)        {}
func (s nullTrans) Deliver()                      {}
func (s nullTrans) Inbox(int) []transport.Message { return nil }
func (s nullTrans) Stats() transport.Stats        { return transport.Stats{} }
func (s nullTrans) Close() error                  { return nil }

// refPick is the sort-based partner draw the id-ordered walk replaces:
// collect the unsuspected active peers, sort them, draw an index.
func refPick(active map[int32]bool, self int32, det *detect.Detector, rng *xrand.Stream) (int32, bool) {
	cands := make([]int32, 0, len(active))
	for p := range active {
		if p != self && !det.Suspected(p) {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j] < cands[j-1]; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands[rng.Intn(len(cands))], true
}

// TestPickPartnerMatchesSortedDraw drives nodes through random join,
// drain and leave volleys and random suspicion patterns, and checks
// after every step that pickPartner returns the sort-based reference
// draw and leaves the node's stream in the same state.
func TestPickPartnerMatchesSortedDraw(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		n := []int{1, 2, 3, 8, 33, 128}[seed%6]
		t.Run(fmt.Sprintf("seed%d/n%d", seed, n), func(t *testing.T) {
			ops := xrand.New(seed ^ 0xfeed)
			self := int32(ops.Intn(n))
			nd, err := New(&sinkTrans{n: n}, Config{ID: self, N: n, Seed: seed,
				Detect: detect.Config{SuspectAfter: 3, DownAfter: 6, HeartbeatEvery: 1}})
			if err != nil {
				t.Fatal(err)
			}
			active := map[int32]bool{}
			for p := int32(0); p < int32(n); p++ {
				if p != self {
					active[p] = true
				}
			}
			for step := int64(1); step <= 300; step++ {
				// Membership volleys, including from ids outside the fleet,
				// the load generator and the node itself.
				for k := ops.Intn(3); k > 0; k-- {
					from := int32(ops.Intn(n+2)) - 1
					switch ops.Intn(3) {
					case 0:
						nd.handle(transport.Message{From: from, To: self, Kind: transport.KindJoin})
						if from >= 0 && from < int32(n) && from != self {
							active[from] = true
						}
					case 1:
						nd.handle(transport.Message{From: from, To: self, Kind: transport.KindDrain})
						delete(active, from)
					default:
						nd.handle(transport.Message{From: from, To: self, Kind: transport.KindLeave})
						delete(active, from)
					}
				}
				// Traffic from a random subset keeps it alive; the rest
				// drift into suspicion and back.
				for p := 0; p < n; p++ {
					if ops.Intn(4) == 0 {
						nd.det.Heard(int32(p), step)
					}
				}
				nd.det.Tick(step)
				for draws := ops.Intn(4); draws > 0; draws-- {
					ref := *nd.rng
					want, wantOK := refPick(active, self, nd.det, &ref)
					got, gotOK := nd.pickPartner()
					if got != want || gotOK != wantOK {
						t.Fatalf("step %d: pick %d,%v, reference %d,%v", step, got, gotOK, want, wantOK)
					}
					if ref != *nd.rng {
						t.Fatalf("step %d: stream state diverged from the reference draw", step)
					}
				}
			}
			if len(nd.peers) != len(active) {
				t.Fatalf("active set has %d peers, reference %d", len(nd.peers), len(active))
			}
			for i, p := range nd.peers {
				if !active[p] || (i > 0 && nd.peers[i-1] >= p) {
					t.Fatalf("active set %v is not the sorted reference %v", nd.peers, active)
				}
			}
		})
	}
}

// TestDedupFastPathMatchesScan checks the maxSeq shortcut against a
// plain scan of the ring over random seq streams with retransmits,
// wraparound and joins.
func TestDedupFastPathMatchesScan(t *testing.T) {
	ops := xrand.New(5)
	r := newDedupRing()
	next := int32(0)
	for i := 0; i < 20000; i++ {
		var seq int32
		switch ops.Intn(4) {
		case 0: // a retransmit of a recent or long-evicted seq
			seq = next - 1 - int32(ops.Intn(2*dedupLen))
		case 1: // a fresh incarnation restarts from zero
			r = newDedupRing()
			next = 0
			continue
		default:
			seq = next
			next++
		}
		scan := false
		for _, s := range r.seqs {
			scan = scan || s == seq
		}
		if got := r.has(seq); got != scan {
			t.Fatalf("op %d: has(%d) = %v, scan says %v", i, seq, got, scan)
		}
		if !scan {
			r.add(seq)
		}
	}
}

// TestPickPartnerAllocs pins the partner draw and an idle tick to zero
// heap allocations.
func TestPickPartnerAllocs(t *testing.T) {
	nd, err := New(nullTrans{n: 128}, Config{ID: 5, N: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { nd.pickPartner() }); a != 0 {
		t.Fatalf("pickPartner: %v allocs/op, want 0", a)
	}
	for i := 0; i < 100; i++ {
		nd.Tick()
	}
	if a := testing.AllocsPerRun(100, nd.Tick); a != 0 {
		t.Fatalf("idle Tick: %v allocs/op, want 0", a)
	}
}

// BenchmarkNodeTick measures one idle node's tick (no work, no inbox,
// heartbeats into a discarding transport) at two fleet sizes: with the
// deadline-skipping detector and the id-ordered partner walk the cost
// should barely move with n.
func BenchmarkNodeTick(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nd, err := New(nullTrans{n: n}, Config{ID: 0, N: n, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd.Tick()
			}
		})
	}
}
