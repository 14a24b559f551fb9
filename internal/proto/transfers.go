package proto

// The acknowledged-transfer machinery: applying and acking blocks,
// shipping them (instant fault-free, sequence-numbered and retried
// under a fault plan), the late-settlement tail, and the per-phase
// message accounting.

import (
	"plb/internal/sim"
	"plb/internal/transport"
)

// applyTransfer is the receiver side of an acknowledged transfer:
// custody of the block moves here, at delivery — the sender's queue is
// debited and ours credited atomically, so no task is ever in flight.
// A retransmit whose earlier copy already landed (the ack was lost) is
// recognized by its sequence number and re-acked without applying.
func (b *Balancer) applyTransfer(m *sim.Machine, p int32, msg transport.Message) {
	st := &b.procs[p]
	for _, s := range st.seen {
		if s == msg.B {
			b.xferDup++
			b.tr.Send(transport.Message{From: p, To: msg.From, Kind: transport.KindTransferAck, B: msg.B})
			return
		}
	}
	moved := m.Transfer(int(msg.From), int(p), int(msg.A))
	st.seen[st.seenIdx] = msg.B
	st.seenIdx = (st.seenIdx + 1) % int16(len(st.seen))
	b.xferApplied++
	b.ps.Transferred += int64(moved)
	b.tr.Send(transport.Message{From: p, To: msg.From, Kind: transport.KindTransferAck, A: int32(moved), B: msg.B})
}

// ackTransfer is the sender side: the echo of our outstanding sequence
// number retires the block (any other ack is stale — a retry already
// superseded it or the phase gave up).
func (b *Balancer) ackTransfer(p int32, msg transport.Message) {
	st := &b.procs[p]
	if st.xferOpen && st.xferSeq == msg.B {
		st.xferOpen = false
		b.xferAcked++
		if st.xferDrain {
			st.xferDrain = false
			b.memHandoff += int64(msg.A)
		}
	}
}

// shipBlock moves (or starts moving) one standard-size block from
// heavy root h to partner; see shipBlockN.
func (b *Balancer) shipBlock(m *sim.Machine, h, partner int32) int {
	return b.shipBlockN(m, h, partner, b.cfg.TransferAmount)
}

// shipBlockN moves (or starts moving) an amt-task block from from to
// to. Fault-free the move is instant and the KindTransfer message is
// decorative, byte-identical to the pre-detector implementation; its
// return is the task count moved. Under a fault plan the message IS
// the transfer: tasks stay queued at the sender until the recipient
// applies the block (so nothing is ever in flight and a crashed
// recipient never silently eats it), the sender tracks one
// sequence-numbered outstanding record, and faultSweep retries it with
// exponential backoff; the return is 0 — delivery accounts the
// movement.
func (b *Balancer) shipBlockN(m *sim.Machine, from, to int32, amt int) int {
	if b.inj == nil {
		moved := m.Transfer(int(from), int(to), amt)
		b.tr.Send(transport.Message{From: from, To: to, Kind: transport.KindTransfer, A: int32(moved)})
		return moved
	}
	b.xferSeq++
	st := &b.procs[from]
	st.xferOpen = true
	st.xferDrain = false
	st.xferSeq = b.xferSeq
	st.xferTo = to
	st.xferAmt = int32(amt)
	st.xferSentAt = b.step
	st.xferTries = 1
	b.tr.Send(transport.Message{From: from, To: to, Kind: transport.KindTransfer, A: st.xferAmt, B: st.xferSeq})
	return 0
}

// lateSettle lets a root whose id messages were delayed past the
// schedule end still transfer during the idle tail (fault runs only).
func (b *Balancer) lateSettle(m *sim.Machine) {
	for _, h := range b.heavies {
		st := &b.procs[h]
		if st.matched || st.xferOpen || len(st.candidates) == 0 || b.down(h) {
			continue
		}
		partner := b.pickPartner(st)
		if partner < 0 {
			continue
		}
		moved := b.shipBlock(m, h, partner)
		st.matched = true
		b.ps.Matched++
		b.ps.LateMatched++
		b.ps.Transferred += int64(moved)
	}
	b.syncMessages(m)
}

// syncMessages pushes this phase's message count into the machine
// metrics incrementally, so late-tail traffic is accounted without
// double-counting what settle already reported.
func (b *Balancer) syncMessages(m *sim.Machine) {
	cur := b.tr.Stats().Sent - b.sentAt
	if cur > b.accounted {
		m.AddMessages(cur - b.accounted)
		b.accounted = cur
	}
	b.ps.Messages = cur
}

// finishPhase publishes the completed phase's stats and, under fault
// injection, rolls the phase's fault accounting into the machine
// metrics (abandoned roots, retry volleys, dropped messages).
func (b *Balancer) finishPhase(m *sim.Machine) {
	if b.inj != nil {
		for _, h := range b.heavies {
			if !b.procs[h].matched {
				b.ps.Abandoned++
			}
		}
		if b.ps.Abandoned > 0 {
			m.AddAbandonedPhases(int64(b.ps.Abandoned))
		}
		if b.ps.Retries > 0 {
			m.AddRetries(int64(b.ps.Retries))
		}
	}
	st := b.tr.Stats()
	if lost := st.Dropped + st.CrashLost - b.dropMark; lost > 0 {
		m.AddDrops(lost)
		b.dropMark += lost
	}
	b.totalPhases++
	b.totalMatched += int64(b.ps.Matched)
	b.totalHeavy += int64(b.ps.Heavy)
	if b.cfg.OnPhase != nil {
		b.cfg.OnPhase(b.ps)
	}
}
