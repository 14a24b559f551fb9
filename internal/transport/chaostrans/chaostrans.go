// Package chaostrans is transport-level fault injection: a
// transport.Transport middleware that wraps any concrete transport
// (TCP or UDS socktrans endpoints, or a view of the in-memory bus) and
// executes a fault plan's link faults at the frame boundary, before a
// frame reaches the wrapped transport. It is the one place link fates
// are drawn, for the lockstep protocol and the node runtime alike.
//
// The injection point is Send: every protocol frame draws its fate
// from a deterministic faults.Injector — a pure hash of (seed, step,
// sequence, endpoints) — so drop, duplicate, delay and partition
// verdicts are seedable and replayable even though a socket transport
// itself is only statistically reproducible. A dropped frame never
// touches the wrapped transport; a duplicated frame is forwarded twice
// (the copy immediately, so a delayed original also exercises
// reordering); a delayed frame is held locally and released after the
// fated number of delivery windows, so it arrives exactly that many
// windows late. Partitions cut cross-group frames until the plan's
// healing step, after which traffic flows again — the heal is what the
// socktrans reconnect jitter exists for.
//
// On sockets chaostrans emulates only what a real network can do to a
// frame in flight. Plan features that target processors rather than
// links — crash and flap schedules — are the supervisor's job there: a
// process dies by SIGKILL (or the in-process fleet's endpoint bounce),
// not by a transport pretending. SplitPlan is the single place that
// partitions a plan into the two halves and rejects the features
// (membership churn, drain schedules, redistribute-on-recovery) that
// have no deterministic real-network emulation at either level. The
// lockstep protocol wraps its bus view with an injector of its whole
// plan instead, so Fate also drops frames to or from crashed ids.
package chaostrans

import (
	"fmt"
	"sync"

	"plb/internal/faults"
	"plb/internal/transport"
)

// heldFrame is one delayed frame awaiting its release window.
type heldFrame struct {
	release int64
	m       transport.Message
}

// Trans wraps a concrete transport with deterministic link faults.
type Trans struct {
	inner transport.Transport
	inj   *faults.Injector

	mu   sync.Mutex
	seq  int64
	step int64
	held []heldFrame

	sent       int64
	dropped    int64
	duplicated int64
	delayed    int64
	kindSent   [transport.KindMax]int64
}

var (
	_ transport.Transport   = (*Trans)(nil)
	_ transport.KindCounter = (*Trans)(nil)
)

// Counters is the middleware's own injection ledger, folded by the
// fleet into the net_* Extra family the simulated backends report.
type Counters struct {
	// Sent counts protocol sends at the chaos boundary (before any
	// fate is applied).
	Sent int64
	// Dropped, Duplicated and Delayed count injected fates.
	Dropped, Duplicated, Delayed int64
	// Held is the number of delayed frames currently awaiting release.
	Held int64
}

// SplitPlan partitions a fault plan between the two chaos layers of a
// socket fleet: link is the part chaostrans executes at the frame
// boundary (drop, dup, delay, partitions, straggler send-delay), proc
// is the part a process supervisor executes by killing and restarting
// endpoints on the plan's seeded schedule (crash windows, flapping).
// Plan features a real deployment cannot emulate deterministically at
// either level are rejected with an error naming the directive:
// membership churn and drain schedules belong to the daemon lifecycle
// (start an lbsimd, SIGTERM an lbsimd), and redistribute-on-recovery
// is a simulator recovery policy with no process-level analogue.
func SplitPlan(p faults.Plan) (link, proc faults.Plan, err error) {
	p = p.Normalized()
	if p.ChurnJoin > 0 || p.ChurnLeave > 0 {
		return link, proc, fmt.Errorf("chaostrans: churn:... schedules simulated membership; on sockets, join and drain are the daemon lifecycle (start another lbsimd, SIGTERM one)")
	}
	if p.DrainK > 0 || p.DrainFrac > 0 {
		return link, proc, fmt.Errorf("chaostrans: drain:... schedules simulated scale-in; on sockets, drain a daemon by sending it SIGTERM")
	}
	if p.Redistribute {
		return link, proc, fmt.Errorf("chaostrans: redistribute is a simulator recovery-queue policy; a restarted process starts empty")
	}
	link = p
	link.Crashes = nil
	link.CrashK, link.CrashFrac = 0, 0
	link.CrashAt, link.CrashRecover = 0, 0
	link.FlapK, link.FlapFrac = 0, 0
	link.FlapPeriod, link.FlapDuty = 0, 0
	proc = faults.Plan{
		Seed:    p.Seed,
		Crashes: p.Crashes,
		CrashK:  p.CrashK, CrashFrac: p.CrashFrac,
		CrashAt: p.CrashAt, CrashRecover: p.CrashRecover,
		FlapK: p.FlapK, FlapFrac: p.FlapFrac,
		FlapPeriod: p.FlapPeriod, FlapDuty: p.FlapDuty,
	}
	return link, proc, nil
}

// Wrap builds the middleware over inner, drawing every frame's fate
// from inj. A socket endpoint's injector is built from SplitPlan's
// link half. step is where the fault clock starts: the delivery
// windows the run has already opened, so a revived endpoint keeps its
// fleet's clock (0 for a process that shares no clock with anyone).
func Wrap(inner transport.Transport, inj *faults.Injector, step int64) *Trans {
	return &Trans{inner: inner, inj: inj, step: step}
}

// N implements transport.Transport.
func (t *Trans) N() int { return t.inner.N() }

// Send implements transport.Transport: the frame draws a deterministic
// fate before it can touch the wrapped transport. Dropped frames go
// nowhere (the protocol's retries are the recovery, exactly as for a
// frame a real network eats); duplicated frames are forwarded twice;
// delayed frames are held at this endpoint and released after the
// fated number of delivery windows, so a delayed original can arrive
// after its own duplicate or retransmit.
func (t *Trans) Send(m transport.Message) {
	t.mu.Lock()
	t.sent++
	if m.Kind > 0 && m.Kind < transport.KindMax {
		t.kindSent[m.Kind]++
	}
	t.seq++
	f := t.inj.Fate(t.step, t.seq, m.From, m.To)
	if f.Drop {
		t.dropped++
		t.mu.Unlock()
		return
	}
	dup := f.Dup
	if dup {
		t.duplicated++
	}
	if f.Delay > 0 {
		t.delayed++
		t.held = append(t.held, heldFrame{release: t.step + int64(f.Delay), m: m})
		t.mu.Unlock()
		if dup {
			t.inner.Send(m)
		}
		return
	}
	t.mu.Unlock()
	t.inner.Send(m)
	if dup {
		t.inner.Send(m)
	}
}

// Deliver implements transport.Transport: opens the wrapped
// transport's delivery window, advances the fault clock, and only then
// releases every held frame whose time has come, so a frame fated
// Delay = d is readable exactly d windows after an undelayed one.
func (t *Trans) Deliver() {
	t.inner.Deliver()
	t.mu.Lock()
	t.step++
	var due []transport.Message
	keep := t.held[:0]
	for _, h := range t.held {
		if h.release <= t.step {
			due = append(due, h.m)
		} else {
			keep = append(keep, h)
		}
	}
	t.held = keep
	t.mu.Unlock()
	for _, m := range due {
		t.inner.Send(m)
	}
}

// Inbox implements transport.Transport.
func (t *Trans) Inbox(p int) []transport.Message { return t.inner.Inbox(p) }

// Stats implements transport.Transport: the wrapped transport's
// counters with the injected fates folded in. Sent is the protocol
// boundary count (what the nodes asked to send), not the inner socket
// count, so dropped frames are not silently missing and duplicated
// frames are not double-counted.
func (t *Trans) Stats() transport.Stats {
	s := t.inner.Stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Sent = t.sent
	s.Dropped += t.dropped
	s.Duplicated += t.duplicated
	s.Delayed += t.delayed
	return s
}

// SentByKind implements transport.KindCounter at the protocol
// boundary: every send counts under its kind, whatever its fate.
func (t *Trans) SentByKind() [transport.KindMax]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kindSent
}

// Counters returns the injection ledger.
func (t *Trans) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Counters{
		Sent: t.sent, Dropped: t.dropped, Duplicated: t.duplicated,
		Delayed: t.delayed, Held: int64(len(t.held)),
	}
}

// Close implements transport.Transport. Held frames die with the
// endpoint — a crashed process's unsent frames are exactly as gone.
func (t *Trans) Close() error { return t.inner.Close() }
