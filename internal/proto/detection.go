package proto

// The failure-detection plumbing: feeding the detector from delivered
// traffic, the per-step fault sweep (heartbeats, reservation releases,
// transfer retries, detector scoring against ground truth), and the
// liveness-judgment helpers the protocol handlers consult.

import (
	"plb/internal/membership"
	"plb/internal/sim"
	"plb/internal/transport"
)

// observeTraffic runs right after Deliver under fault injection: one
// pass over every inbox feeds the failure detector (any delivered
// message is evidence its sender was recently alive — heartbeat gossip
// piggy-backed on protocol traffic) and dispatches the transfer
// machinery (KindTransfer applies a block, KindTransferAck closes the
// sender's outstanding record).
func (b *Balancer) observeTraffic(m *sim.Machine) {
	now := b.step
	for p := 0; p < b.n; p++ {
		for _, msg := range b.tr.Inbox(p) {
			b.det.Heard(msg.From, now)
			switch msg.Kind {
			case transport.KindTransfer:
				b.applyTransfer(m, int32(p), msg)
			case transport.KindTransferAck:
				b.ackTransfer(int32(p), msg)
			case transport.KindJoin:
				if msg.B > 0 {
					// Admission broadcast: the view advanced to epoch B.
					b.observeEpoch(int32(p), int64(msg.B))
				} else if msg.A == 1 {
					// Join request on the sponsor copy: book the joiner.
					b.noteJoinRequest(int32(p), msg.From, now)
				}
			case transport.KindDrain, transport.KindLeave:
				b.observeEpoch(int32(p), int64(msg.A))
			}
		}
	}
}

// faultSweep runs once per step under fault injection. Protocol-side it
// advances the failure detector, emits due heartbeats, releases
// reservations whose boss is suspected down, and pumps outstanding
// transfer retries. Substrate-side it uses the machine's crash oracle
// (ground truth) for physics — recovery scatter — and to score the
// detector: detection latency, false suspicions, and crash windows
// that closed undetected. Ground truth never feeds a protocol decision.
func (b *Balancer) faultSweep(m *sim.Machine) {
	now := b.step
	b.det.Tick(now)
	for p := 0; p < b.n; p++ {
		// Physical crash ground truth comes straight from the injector
		// (identical to the machine oracle on a static population);
		// membership absence is a separate, legitimate way to be silent
		// and must not be scored as a crash window or a false suspicion.
		down := b.inj.Crashed(int32(p), now)
		gone := b.mem != nil && b.mem.Gone(int32(p))
		if b.prevDown[p] && !down {
			if b.inj.Redistribute() {
				m.ScatterFrom(p, b.scatterRng)
			}
			if !b.winDetected[p] {
				b.missedWindows++
			}
			b.crashedAt[p] = -1
		} else if !b.prevDown[p] && down {
			b.crashedAt[p] = now
			b.winDetected[p] = false
		}
		b.prevDown[p] = down

		suspect := b.det.Suspected(int32(p))
		if suspect && !b.prevSuspect[p] {
			if b.crashedAt[p] >= 0 && !b.winDetected[p] {
				b.winDetected[p] = true
				b.detDetections++
				b.detLatencySum += now - b.crashedAt[p]
			} else if b.crashedAt[p] < 0 && !gone {
				b.falseSuspicions++
			}
		}
		b.prevSuspect[p] = suspect

		st := &b.procs[p]
		if st.assigned && b.det.Suspected(st.reservedFor) {
			st.assigned = false
			b.ps.Released++
		}
		if down || gone {
			continue // frozen or departed: no heartbeats, no retries
		}
		if b.det.Due(int32(p), now) {
			tgt := int32(-1)
			if b.mem == nil {
				tgt = b.det.Target(int32(p))
			} else if b.mem.State(int32(p)) != membership.Joining {
				// Members and drainers gossip within their view; a
				// joiner's liveness evidence is its join volleys.
				tgt = b.pickViewPeer(int32(p))
			}
			if tgt >= 0 {
				b.tr.Send(transport.Message{From: int32(p), To: tgt, Kind: transport.KindHeartbeat})
				b.hbSent++
			}
		}
		if st.xferOpen && now-st.xferSentAt >= xferTimeout<<(st.xferTries-1) {
			if st.xferTries >= xferAttempts {
				// Give up: the tasks never left our queue, so "re-queue"
				// is simply closing the record.
				st.xferOpen = false
				st.xferDrain = false
				b.xferRequeued++
			} else {
				st.xferTries++
				st.xferSentAt = now
				b.xferRetries++
				b.tr.Send(transport.Message{From: int32(p), To: st.xferTo, Kind: transport.KindTransfer,
					A: st.xferAmt, B: st.xferSeq})
			}
		}
	}
}

// down reports whether p itself is frozen right now — the physics
// question ("can this processor execute this step"), answered by the
// machine's crash oracle, not a judgment about a remote peer. Remote
// liveness judgments go through the failure detector. (On churn runs
// the machine oracle composes crash and membership absence, so a
// departed slot reads as down here too.)
func (b *Balancer) down(p int32) bool {
	return b.inj != nil && b.mach.Down(int(p))
}

// pickPartner returns the first candidate the failure detector does
// not suspect and the membership layer still lists as a full member
// (the first candidate outright when faults are off), or -1.
func (b *Balancer) pickPartner(st *procState) int32 {
	for _, c := range st.candidates {
		if b.det != nil && b.det.Suspected(c) {
			continue
		}
		if b.mem != nil && !b.mem.EligiblePartner(c) {
			continue
		}
		return c
	}
	return -1
}
