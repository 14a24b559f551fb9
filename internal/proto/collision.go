package proto

// The collision-round handlers: phase classification, the query trees
// of Figure 2, the pre-round of Section 4.3, and the end-of-phase
// settlement. Everything here is the fault-free protocol; the fault
// and membership sweeps live in detection.go and membership.go.

import (
	"plb/internal/core"
	"plb/internal/sim"
	"plb/internal/transport"
)

// beginPhase classifies processors and launches the heavy searchers
// (Figure 2's initialization).
func (b *Balancer) beginPhase(m *sim.Machine) {
	// Close out the previous phase's stats (under faults, first sweep
	// up idle-tail traffic — heartbeats, transfer retries — so the
	// phase's message accounting is complete).
	if b.phaseOpen {
		if b.inj != nil {
			b.syncMessages(m)
		}
		b.finishPhase(m)
	}
	b.phaseOpen = true
	b.ps = core.PhaseStats{Start: m.Now(), Steps: b.cfg.ScheduleSteps()}
	b.sentAt = b.tr.Stats().Sent
	b.accounted = 0
	b.heavies = b.heavies[:0]

	snap := m.Snapshot()
	for p := 0; p < b.n; p++ {
		st := &b.procs[p]
		l := int(snap[p])
		st.lightAt = l <= b.cfg.LightThreshold
		st.assigned = false
		st.searching = false
		st.satisfied = false
		st.matched = false
		st.gameAccepts = 0
		st.boss = int32(p)
		st.candidates = st.candidates[:0]
		st.accFrom = st.accFrom[:0]
		st.accApp = st.accApp[:0]
		if b.down(int32(p)) {
			// A crashed processor sits the phase out entirely: it is
			// neither light (it cannot accept a reservation) nor a
			// heavy root (it cannot run a tree), whatever its frozen
			// queue says.
			st.lightAt = false
			continue
		}
		if b.mem != nil && !b.mem.EligiblePartner(int32(p)) {
			// Joining and draining slots sit classification out: they
			// are neither light (they must not take on load) nor heavy
			// roots (a drainer's load leaves through the hand-off pump).
			st.lightAt = false
			continue
		}
		if st.lightAt {
			b.ps.Light++
		}
		if l >= b.cfg.HeavyThreshold {
			b.heavies = append(b.heavies, int32(p))
		}
	}
	b.ps.Heavy = len(b.heavies)
	if b.cfg.PreRound {
		// Section 4.3: one probe each before any trees grow.
		for _, h := range b.heavies {
			var tgt int32
			if b.mem == nil {
				tgt = int32(b.rng.Intn(b.n))
			} else {
				view := b.mem.ViewOf(h)
				tgt = view[b.rng.Intn(len(view))]
			}
			b.tr.Send(transport.Message{From: h, To: tgt, Kind: transport.KindProbe})
		}
	} else {
		for _, h := range b.heavies {
			b.startSearch(h, h, m.Now())
		}
	}
	if len(b.heavies) > 0 {
		b.ps.Rounds = 1
	}
}

// processProbes handles the Section 4.3 pre-round on the target side.
func (b *Balancer) processProbes() {
	for p := 0; p < b.n; p++ {
		inbox := b.tr.Inbox(p)
		var probe *transport.Message
		probes := 0
		for i := range inbox {
			if inbox[i].Kind == transport.KindProbe {
				probes++
				probe = &inbox[i]
			}
		}
		if probes != 1 {
			continue // no probe, or a collision of several
		}
		st := &b.procs[p]
		if !st.lightAt || st.assigned {
			continue
		}
		st.assigned = true
		st.reservedFor = probe.From
		b.tr.Send(transport.Message{From: int32(p), To: probe.From, Kind: transport.KindID})
	}
}

// preSettle finishes the pre-round: probers that heard back transfer
// immediately; everyone else opens a query tree.
func (b *Balancer) preSettle(m *sim.Machine) {
	for _, h := range b.heavies {
		st := &b.procs[h]
		if b.down(h) {
			continue // crashed prober: no transfer, no tree
		}
		if st.xferOpen {
			continue // previous block still unacknowledged: back off
		}
		if partner := b.pickPartner(st); partner >= 0 {
			moved := b.shipBlock(m, h, partner)
			st.matched = true
			b.ps.Matched++
			b.ps.PreMatched++
			b.ps.Transferred += int64(moved)
			continue
		}
		b.startSearch(h, h, m.Now())
	}
}

// startSearch turns processor s into a searcher for root boss and
// sends its queries.
func (b *Balancer) startSearch(s, boss int32, now int64) {
	st := &b.procs[s]
	if st.searching {
		return
	}
	st.searching = true
	st.satisfied = false
	st.boss = boss
	st.volleys = 0
	st.accFrom = st.accFrom[:0]
	st.accApp = st.accApp[:0]
	if b.mem == nil {
		buf := make([]int, b.cfg.Collision.A)
		b.rng.SampleDistinct(buf, b.cfg.Collision.A, b.n, int(s))
		for i, v := range buf {
			st.choices[i] = int32(v)
			st.acceptedBy[i] = false
		}
	} else {
		// Dynamic population: the a targets come from the searcher's
		// current view, not the fixed [0, n) range.
		cand := b.memScratch[:0]
		for _, v := range b.mem.ViewOf(s) {
			if v != s {
				cand = append(cand, v)
			}
		}
		if len(cand) < b.cfg.Collision.A {
			// View too small for a full query set: sit the search out
			// (consumption and the rebalance pass carry the load).
			st.searching = false
			b.memScratch = cand[:0]
			return
		}
		for i := 0; i < b.cfg.Collision.A; i++ {
			j := i + b.rng.Intn(len(cand)-i)
			cand[i], cand[j] = cand[j], cand[i]
			st.choices[i] = cand[i]
			st.acceptedBy[i] = false
		}
		b.memScratch = cand[:0]
	}
	b.ps.Requests++
	b.sendQueries(s, now)
}

// sendQueries (re)sends queries to every choice that has not accepted.
func (b *Balancer) sendQueries(s int32, now int64) {
	st := &b.procs[s]
	st.lastSent = now
	st.volleys++
	for i, tgt := range st.choices {
		if st.acceptedBy[i] {
			continue
		}
		b.tr.Send(transport.Message{From: s, To: tgt, Kind: transport.KindQuery, A: st.boss})
	}
}

// processQueries is the target side of one collision round: a
// processor accepts all of this round's queries iff its cumulative
// game total stays within the collision value c; otherwise it answers
// none of them (the collision effect).
func (b *Balancer) processQueries() {
	for p := 0; p < b.n; p++ {
		inbox := b.tr.Inbox(p)
		nq := 0
		for _, msg := range inbox {
			if msg.Kind == transport.KindQuery {
				nq++
			}
		}
		if nq == 0 {
			continue
		}
		st := &b.procs[p]
		if int(st.gameAccepts)+nq > b.cfg.Collision.C {
			continue // collision: answer nothing
		}
		for _, msg := range inbox {
			if msg.Kind != transport.KindQuery {
				continue
			}
			st.gameAccepts++
			applicative := st.lightAt && !st.assigned
			flag := int32(0)
			if applicative {
				flag = 1
				st.assigned = true
				st.reservedFor = msg.A
				// The id message goes straight to the tree root.
				b.tr.Send(transport.Message{From: int32(p), To: msg.A, Kind: transport.KindID})
			}
			b.tr.Send(transport.Message{From: int32(p), To: msg.From, Kind: transport.KindAccept, A: msg.A, B: flag})
		}
	}
}

// tallyAccepts is the searcher side: accumulate accept messages and
// re-query the holdouts once the previous volley has had time to
// answer.
func (b *Balancer) tallyAccepts(now int64) {
	for p := 0; p < b.n; p++ {
		st := &b.procs[p]
		if !st.searching || st.satisfied {
			continue
		}
		if b.down(int32(p)) {
			continue // crashed searchers send nothing
		}
		for _, msg := range b.tr.Inbox(p) {
			if msg.Kind != transport.KindAccept {
				continue
			}
			for i, tgt := range st.choices {
				if tgt == msg.From && !st.acceptedBy[i] {
					st.acceptedBy[i] = true
					st.accFrom = append(st.accFrom, msg.From)
					st.accApp = append(st.accApp, msg.B == 1)
					break
				}
			}
		}
		if len(st.accFrom) >= b.cfg.Collision.B {
			st.satisfied = true
			continue
		}
		if now-st.lastSent >= 2 {
			if b.maxRetries > 0 && int(st.volleys) > b.maxRetries {
				continue // retry budget exhausted for this game
			}
			if b.inj != nil {
				b.ps.Retries++
			}
			b.sendQueries(int32(p), now) // re-query non-accepting targets
		}
	}
}

// levelWrapUp ends a collision game: satisfied searchers whose entire
// accepted group is non-applicative forward the search (the sibling
// rule); unsatisfied searchers retry at the next level; everyone's
// game state resets.
func (b *Balancer) levelWrapUp(level int, now int64) {
	lastLevel := level == b.cfg.Levels-1
	var retry []int32
	for p := 0; p < b.n; p++ {
		st := &b.procs[p]
		st.gameAccepts = 0 // next level is a fresh collision game
		if !st.searching {
			continue
		}
		st.searching = false
		if b.down(int32(p)) {
			continue // a crashed node neither forwards nor retries
		}
		if !st.satisfied {
			if !lastLevel {
				retry = append(retry, int32(p))
			}
			continue
		}
		anyApplicative := false
		group := st.accFrom[:b.cfg.Collision.B]
		for _, app := range st.accApp[:b.cfg.Collision.B] {
			if app {
				anyApplicative = true
			}
		}
		if !anyApplicative && !lastLevel {
			// Both siblings cannot accept load: they keep searching.
			// The parent coordinates (one forward message each).
			for _, t := range group {
				b.tr.Send(transport.Message{From: int32(p), To: t, Kind: transport.KindForward, A: st.boss})
			}
		}
	}
	if lastLevel {
		return
	}
	// Retrying searchers re-enter immediately with fresh choices;
	// forwarded processors join when their message arrives (next
	// offset, which is the new level's start — handled in collectIDs'
	// sweep? No: forwards are consumed here on the *next* call).
	for _, s := range retry {
		b.startSearch(s, b.procs[s].boss, now)
	}
	if b.ps.Heavy > 0 {
		b.ps.Rounds++
	}
}

// collectIDs runs every step: roots bank arriving id messages, and
// forwarded processors join the search.
func (b *Balancer) collectIDs(now int64) {
	for p := 0; p < b.n; p++ {
		for _, msg := range b.tr.Inbox(p) {
			switch msg.Kind {
			case transport.KindID:
				st := &b.procs[p]
				st.candidates = append(st.candidates, msg.From)
			case transport.KindForward:
				b.startSearch(int32(p), msg.A, now)
			}
		}
	}
}

// settle ends the phase's protocol: each heavy root that heard from at
// least one light processor selects the first and moves the block.
func (b *Balancer) settle(m *sim.Machine) {
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
		b.ps.Transferred += int64(moved)
	}
	b.syncMessages(m)
	m.AddCommRounds(int64(b.cfg.Levels * b.cfg.Rounds))
}
