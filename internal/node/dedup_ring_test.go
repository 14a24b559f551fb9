package node

import (
	"testing"

	"plb/internal/task"
	"plb/internal/transport"
)

// sinkTrans is a transport stub for driving a single node's handler
// directly: sends are recorded, nothing is delivered.
type sinkTrans struct {
	n    int
	sent []transport.Message
}

func (s *sinkTrans) N() int                        { return s.n }
func (s *sinkTrans) Send(m transport.Message)      { s.sent = append(s.sent, m) }
func (s *sinkTrans) Deliver()                      {}
func (s *sinkTrans) Inbox(int) []transport.Message { return nil }
func (s *sinkTrans) Stats() transport.Stats        { return transport.Stats{} }
func (s *sinkTrans) Close() error                  { return nil }
func (s *sinkTrans) acks() (count int, lastSeq int32) {
	for _, m := range s.sent {
		if m.Kind == transport.KindTransferAck {
			count++
			lastSeq = m.B
		}
	}
	return count, lastSeq
}

func xfer(from int32, epoch uint8, seq int32) transport.Message {
	return transport.Message{From: from, To: 0, Kind: transport.KindTransfer,
		A: 1, B: seq, Tasks: []task.Task{{Origin: from, Weight: 1, Remaining: 1, Birth: 0}},
		Blob: []byte{epoch}}
}

// TestDedupRingWraparound exercises the 512-deep dedup ring at its
// exact boundary and across a KindJoin epoch reset, and checks that
// the conservation ledger names each at-least-once duplicate the ring
// cannot absorb.
func TestDedupRingWraparound(t *testing.T) {
	tr := &sinkTrans{n: 4}
	n, err := New(tr, Config{ID: 0, N: 4, Seed: 1, Ledger: true})
	if err != nil {
		t.Fatal(err)
	}
	sender := int32(1)

	// Fill the ring exactly: seqs 0..511 all apply.
	for seq := int32(0); seq < dedupLen; seq++ {
		n.handle(xfer(sender, 1, seq))
	}
	if got := n.injectedOrQueued(); got != dedupLen {
		t.Fatalf("applied %d blocks, want %d", got, dedupLen)
	}

	// A retransmit of seq 0 while the ring is full but not yet wrapped:
	// still present, dup-dropped and re-acked.
	n.handle(xfer(sender, 1, 0))
	if n.dupDropped != 1 {
		t.Fatalf("full-ring retransmit not absorbed: dupDropped=%d", n.dupDropped)
	}
	if count, _ := tr.acks(); count != dedupLen+1 {
		t.Fatalf("every block must be acked (dup included): %d acks", count)
	}

	// Seq 512 evicts seq 0 (the oldest slot). A late retransmit of seq 0
	// now re-applies: the documented at-least-once degradation.
	n.handle(xfer(sender, 1, dedupLen))
	n.handle(xfer(sender, 1, 0))
	if n.dupDropped != 1 {
		t.Fatalf("post-eviction retransmit was absorbed; ring deeper than %d?", dedupLen)
	}
	led := ComputeLedger([]Status{n.Status()}, nil)
	if led.DupDelivered != 1 {
		t.Fatalf("ledger missed the wraparound duplicate: %+v", led)
	}

	// KindJoin marks a fresh incarnation: the ring resets, so the new
	// epoch's restarted seqs apply instead of being eaten as stale.
	n.handle(transport.Message{From: sender, To: 0, Kind: transport.KindJoin})
	n.handle(xfer(sender, 2, 3))
	if n.dupDropped != 1 {
		t.Fatalf("fresh incarnation's seq 3 was eaten by the stale ring")
	}

	// The ring keys by seq alone, so a late epoch-1 retransmit of seq 3
	// aliases the fresh incarnation's entry and is absorbed — harmless
	// here (epoch 1's seq 3 already applied) and invisible to the
	// ledger, because the wire epoch keeps the incarnations' logs
	// distinct.
	n.handle(xfer(sender, 1, 3))
	if n.dupDropped != 2 {
		t.Fatalf("aliased retransmit not absorbed: dupDropped=%d", n.dupDropped)
	}
	led = ComputeLedger([]Status{n.Status()}, nil)
	if led.DupDelivered != 1 {
		t.Fatalf("absorbed retransmit moved the ledger: %+v", led)
	}

	// A late epoch-1 retransmit of a seq NOT in the fresh ring (the
	// reset discarded its entry) re-applies: the second at-least-once
	// duplicate, named under its own incarnation in the join.
	n.handle(xfer(sender, 1, 5))
	led = ComputeLedger([]Status{n.Status()}, nil)
	if led.DupDelivered != 2 {
		t.Fatalf("ledger missed the post-reset duplicate: %+v", led)
	}
	st := n.Status()
	if st.Epoch != 1 {
		t.Fatalf("receiver's own epoch changed: %d", st.Epoch)
	}
}

// injectedOrQueued is the number of transfer tasks the node accepted
// (this fixture has no local generation and never ticks, so the queue
// is exactly the applied blocks).
func (n *Node) injectedOrQueued() int { return n.queue.Len() }
