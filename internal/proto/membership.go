package proto

// The elastic-membership handlers: join bootstraps and admission,
// drain custody hand-off, view-change announcements, and the
// post-view-change rebalance pass. All of it runs only when the fault
// plan schedules churn (b.mem non-nil).

import (
	"plb/internal/membership"
	"plb/internal/sim"
	"plb/internal/transport"
)

// observeEpoch records a membership announcement reaching processor p;
// an advanced view owes a rebalance check on the next membership sweep.
func (b *Balancer) observeEpoch(p int32, epoch int64) {
	if b.mem != nil && b.mem.Observe(p, epoch) {
		b.rebalPending[p] = true
	}
}

// noteJoinRequest is the sponsor side of a join bootstrap: the first
// request heard from a joiner opens its admission window. Stale
// requests (the slot is no longer joining) are dropped.
func (b *Balancer) noteJoinRequest(sponsor, joiner int32, now int64) {
	if b.mem == nil || b.mem.State(joiner) != membership.Joining {
		return
	}
	if b.joinSponsor[joiner] < 0 {
		b.joinSponsor[joiner] = sponsor
		b.joinFirstHeard[joiner] = now
	}
}

// joinSeedCount is how many bootstrap peers a joiner contacts per
// volley; the first is the sponsor, the rest are liveness-evidence
// redundancy in case a seed crashes or departs.
const joinSeedCount = 3

// memSweep runs once per step on churn runs, after the fault sweep: it
// fires the plan's scheduled joins and drains, retries join bootstraps
// and decides admissions, pumps drain custody hand-off, and runs the
// post-view-change rebalance pass.
func (b *Balancer) memSweep(m *sim.Machine) {
	now := b.step
	joins, leaves := b.inj.ChurnDue(now)
	leaves += b.inj.DrainDue(now)
	if joins > 0 {
		for _, j := range b.mem.StartJoins(joins) {
			st := &b.procs[j]
			st.xferOpen, st.xferDrain, st.drainAnnounced = false, false, false
			b.rebalPending[j] = false
			b.joinSponsor[j] = -1
			b.joinSeeds[j] = b.mem.SeedPeers(j, joinSeedCount)
			if !b.inj.Crashed(j, now) {
				b.sendJoinVolley(j)
			}
		}
	}
	if leaves > 0 {
		unfit := func(p int32) bool { return b.det.Suspected(p) }
		for _, d := range b.mem.StartDrains(leaves, unfit) {
			b.procs[d].drainAnnounced = false
		}
	}
	for p := int32(0); int(p) < b.n; p++ {
		switch b.mem.State(p) {
		case membership.Joining:
			if b.inj.Crashed(p, now) {
				continue // a crashed joiner resumes volleys on recovery
			}
			// A departed sponsor or seed can no longer admit: re-seed and
			// wait for a fresh request to land.
			if sp := b.joinSponsor[p]; sp >= 0 && b.mem.Gone(sp) {
				b.joinSponsor[p] = -1
			}
			if len(b.joinSeeds[p]) == 0 || b.mem.Gone(b.joinSeeds[p][0]) {
				b.joinSeeds[p] = b.mem.SeedPeers(p, joinSeedCount)
			}
			if b.det.Due(p, now) {
				b.sendJoinVolley(p)
			}
			sp := b.joinSponsor[p]
			if sp >= 0 && !b.inj.Crashed(sp, now) &&
				now-b.joinFirstHeard[p] >= b.admitAfter && !b.det.Suspected(p) {
				// The sponsor has heard the joiner's volleys long enough
				// to hold it Alive: admit and announce the new view.
				epoch := b.mem.Admit(p)
				b.joinSponsor[p] = -1
				b.observeEpoch(sp, epoch)
				b.broadcast(sp, transport.Message{Kind: transport.KindJoin, A: p, B: int32(epoch)})
			}
		case membership.Draining:
			if b.inj.Crashed(p, now) {
				continue // frozen mid-drain: custody waits for recovery
			}
			st := &b.procs[p]
			if !st.drainAnnounced {
				epoch := b.mem.Epoch()
				b.observeEpoch(p, epoch)
				b.broadcast(p, transport.Message{Kind: transport.KindDrain, A: int32(epoch)})
				st.drainAnnounced = true
			}
			if st.xferOpen {
				continue // one hand-off block at a time (the acked path)
			}
			if load := m.Load(int(p)); load > 0 {
				if tgt := b.pickViewPeer(p); tgt >= 0 {
					amt := b.cfg.TransferAmount
					if amt > load {
						amt = load
					}
					b.shipBlockN(m, p, tgt, amt)
					st.xferDrain = true
				}
			} else {
				// Custody reached zero: depart with a goodbye broadcast.
				epoch := b.mem.Depart(p)
				st.drainAnnounced = false
				b.broadcast(p, transport.Message{Kind: transport.KindLeave, A: int32(epoch)})
			}
		case membership.Active:
			if !b.rebalPending[p] {
				continue
			}
			b.rebalPending[p] = false
			if b.inj.Crashed(p, now) {
				continue
			}
			st := &b.procs[p]
			if st.xferOpen || m.Load(int(p)) < b.cfg.HeavyThreshold {
				continue
			}
			// Rebalance after a view change, randomized-local-search
			// style: an overloaded processor pushes one block to a
			// uniformly random view peer. (The cited local-search rule
			// probes a peer's load first; the one-shot blind push from
			// above-threshold nodes is its message-frugal variant — the
			// regular collision phases do the fine balancing.)
			if tgt := b.pickViewPeer(p); tgt >= 0 {
				b.shipBlockN(m, p, tgt, b.cfg.TransferAmount)
				b.memRebalances++
			}
		}
	}
}

// sendJoinVolley (re)sends the joiner's bootstrap request to its seed
// peers; A = 1 marks the sponsor copy.
func (b *Balancer) sendJoinVolley(j int32) {
	for i, s := range b.joinSeeds[j] {
		a := int32(0)
		if i == 0 {
			a = 1
		}
		b.tr.Send(transport.Message{From: j, To: s, Kind: transport.KindJoin, A: a})
	}
}

// broadcast sends one copy of msg from processor from to every present
// peer — membership announcements. O(present) messages per view
// change, amortized over the churn period; this is the one deliberate
// violation of the per-step constant-degree budget, and a per-window
// send-degree count (TestBoundedSendDegree's) sees it on churn runs.
func (b *Balancer) broadcast(from int32, msg transport.Message) {
	msg.From = from
	for p := int32(0); int(p) < b.n; p++ {
		if p == from || !b.mem.Present(p) {
			continue
		}
		msg.To = p
		b.tr.Send(msg)
	}
}

// pickViewPeer draws a random non-suspected peer from p's view (a few
// seeded attempts, then a deterministic scan), or -1 when the view
// offers nobody usable.
func (b *Balancer) pickViewPeer(p int32) int32 {
	view := b.mem.ViewOf(p)
	if len(view) == 0 {
		return -1
	}
	for try := 0; try < 4; try++ {
		c := view[b.memRng.Intn(len(view))]
		if c != p && !b.det.Suspected(c) {
			return c
		}
	}
	for _, c := range view {
		if c != p && !b.det.Suspected(c) {
			return c
		}
	}
	return -1
}
