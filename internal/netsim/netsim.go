// Package netsim is the in-memory transport: a synchronous
// message-passing network for the distributed implementation of the
// paper's protocol.
//
// The paper's machine model lets every processor exchange a constant
// number of messages per time step with unit latency. netsim realizes
// that: messages sent during step t are delivered at the beginning of
// step t+1, each processor reads its inbox, and the network counts
// traffic. Delivery order within an inbox is deterministic (sender id,
// then send order), so protocols built on netsim are reproducible.
//
// The message vocabulary lives in internal/transport (netsim keeps
// Message as an alias under its historical name); internal/proto
// drives a *Network directly. Simulated fault plans attach here
// (SetFaults, SetGone); the node runtime's real networks
// get theirs from internal/transport/chaostrans.
//
// The counter-based balancer in internal/core models communication by
// accounting; the state machines in internal/proto actually exchange
// these messages. Comparing the two (experiment E16) validates that
// the accounting shortcut does not change the algorithm's behaviour.
package netsim

import (
	"fmt"
	"sort"

	"plb/internal/faults"
	"plb/internal/transport"
)

// Message is one point-to-point datagram (transport.Message under its
// historical name).
type Message = transport.Message

var _ transport.KindCounter = (*Network)(nil)

// Network is a synchronous unit-latency network among n processors.
// It is not safe for concurrent use; the distributed protocol drives
// it from the sequential balancer phase.
type Network struct {
	n       int
	current [][]Message // inboxes readable this step
	next    [][]Message // accumulating, delivered by Deliver
	sent    int64
	dropped int64
	peak    int

	kindSent [transport.KindMax]int64

	sendCnt  []int32 // per-sender messages in the current window
	peakSend int

	// Fault injection (nil when disabled; every hook below is a nil
	// check away from the perfect-network fast path).
	inj       *faults.Injector
	step      int64               // Deliver calls so far
	delayed   map[int64][]Message // step -> messages due then
	dup       int64
	late      int64
	crashLost int64

	// Membership (nil when the population is static): recipients the
	// oracle reports gone have their inboxes discarded at delivery,
	// like crashed ones — a departed processor is not listening.
	gone     func(p int32, step int64) bool
	goneLost int64
}

// New creates a network among n processors.
func New(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: need n >= 1, got %d", n)
	}
	return &Network{
		n:       n,
		current: make([][]Message, n),
		next:    make([][]Message, n),
		sendCnt: make([]int32, n),
	}, nil
}

// N returns the number of processors.
func (nw *Network) N() int { return nw.n }

// SetFaults installs a fault injector: subsequent sends consult it for
// drop/duplicate/delay verdicts, and deliveries to processors the
// injector reports crashed are discarded. nil disables injection; with
// no injector the network behaves exactly as before (zero-cost
// abstraction — the perfect-network path has only nil checks added).
func (nw *Network) SetFaults(inj *faults.Injector) {
	nw.inj = inj
	if inj != nil && nw.delayed == nil {
		nw.delayed = make(map[int64][]Message)
	}
}

// Send enqueues m for delivery at the next Deliver call. It panics on
// out-of-range endpoints (a protocol bug, not a runtime condition).
// Sent messages count even when fault injection drops them (the sender
// paid for the message either way).
func (nw *Network) Send(m Message) {
	if m.From < 0 || int(m.From) >= nw.n || m.To < 0 || int(m.To) >= nw.n {
		panic(fmt.Sprintf("netsim: endpoint out of range in %+v", m))
	}
	nw.sent++
	if m.Kind < transport.KindMax {
		nw.kindSent[m.Kind]++
	}
	nw.sendCnt[m.From]++
	if int(nw.sendCnt[m.From]) > nw.peakSend {
		nw.peakSend = int(nw.sendCnt[m.From])
	}
	if nw.inj != nil {
		f := nw.inj.Fate(nw.step, nw.sent, m.From, m.To)
		if f.Drop {
			nw.dropped++
			return
		}
		if f.Dup {
			nw.dup++
			nw.enqueue(m, f.Delay)
		}
		nw.enqueue(m, f.Delay)
		return
	}
	nw.next[m.To] = append(nw.next[m.To], m)
}

// enqueue routes a message either into the next delivery window or,
// when delayed, into the future-delivery buffer.
func (nw *Network) enqueue(m Message, delay int) {
	if delay <= 0 {
		nw.next[m.To] = append(nw.next[m.To], m)
		return
	}
	due := nw.step + 1 + int64(delay)
	nw.delayed[due] = append(nw.delayed[due], m)
	nw.late++
}

// PeakSendDegree returns the largest number of messages any single
// processor sent within one delivery window. The paper's machine model
// allows each processor only a constant number of messages per step,
// so a protocol on netsim should keep this O(a + c).
func (nw *Network) PeakSendDegree() int { return nw.peakSend }

// Dropped returns how many messages fault injection (a plan's
// drop/partition/crash verdicts) has discarded at send time.
func (nw *Network) Dropped() int64 { return nw.dropped }

// Duplicated returns how many messages fault injection delivered twice.
func (nw *Network) Duplicated() int64 { return nw.dup }

// Delayed returns how many messages fault injection delivered late.
func (nw *Network) Delayed() int64 { return nw.late }

// CrashLost returns how many already-sent messages were discarded at
// delivery time because their recipient was crashed when they arrived
// (a message can out-survive its sender's knowledge of the crash).
func (nw *Network) CrashLost() int64 { return nw.crashLost }

// SetGone installs a membership oracle: deliveries to processors the
// oracle reports gone (outside the system — departed or not yet
// joined) are discarded, exactly like deliveries to crashed ones. nil
// restores the static-population default.
func (nw *Network) SetGone(fn func(p int32, step int64) bool) { nw.gone = fn }

// GoneLost returns how many already-sent messages were discarded at
// delivery time because their recipient had left (or never joined) the
// system when they arrived — the cost of acting on a stale view.
func (nw *Network) GoneLost() int64 { return nw.goneLost }

// Step returns the number of Deliver calls so far — the network's
// clock, which fault schedules are keyed on (it advances in lockstep
// with the machine step of the protocol driving the network).
func (nw *Network) Step() int64 { return nw.step }

// Deliver advances the network one step: everything sent since the
// last Deliver becomes readable, sorted per inbox by (From, send
// order). Previously delivered messages are dropped. With a fault
// injector installed, messages whose delay expires this step join
// their inbox, and inboxes of crashed recipients are emptied.
func (nw *Network) Deliver() {
	nw.step++
	for p := range nw.sendCnt {
		nw.sendCnt[p] = 0
	}
	if nw.inj != nil {
		if due := nw.delayed[nw.step]; len(due) > 0 {
			for _, m := range due {
				nw.next[m.To] = append(nw.next[m.To], m)
			}
			delete(nw.delayed, nw.step)
		}
	}
	for p := 0; p < nw.n; p++ {
		nw.current[p] = nw.current[p][:0]
		inbox := nw.next[p]
		if nw.inj != nil && len(inbox) > 0 && nw.inj.Crashed(int32(p), nw.step) {
			nw.crashLost += int64(len(inbox))
			nw.next[p] = nw.next[p][:0]
			continue
		}
		if nw.gone != nil && len(inbox) > 0 && nw.gone(int32(p), nw.step) {
			nw.goneLost += int64(len(inbox))
			nw.next[p] = nw.next[p][:0]
			continue
		}
		// Stable sort by sender keeps send order among equal senders.
		sort.SliceStable(inbox, func(i, j int) bool { return inbox[i].From < inbox[j].From })
		nw.current[p] = append(nw.current[p], inbox...)
		nw.next[p] = nw.next[p][:0]
		if len(nw.current[p]) > nw.peak {
			nw.peak = len(nw.current[p])
		}
	}
}

// Inbox returns processor p's messages for the current step. The
// slice is owned by the network and valid until the next Deliver.
func (nw *Network) Inbox(p int) []Message { return nw.current[p] }

// Sent returns the total number of messages ever sent.
func (nw *Network) Sent() int64 { return nw.sent }

// SentByKind implements transport.KindCounter: cumulative send counts
// per message kind, for verbose and fault output.
func (nw *Network) SentByKind() [transport.KindMax]int64 { return nw.kindSent }

// Stats aggregates the individual counter accessors.
func (nw *Network) Stats() transport.Stats {
	return transport.Stats{
		Sent:       nw.sent,
		Dropped:    nw.dropped,
		Duplicated: nw.dup,
		Delayed:    nw.late,
		CrashLost:  nw.crashLost,
		GoneLost:   nw.goneLost,
	}
}

// PeakInbox returns the largest inbox size ever delivered — the
// paper's collision effect means protocol logic must stay correct even
// when this exceeds the collision value, because only the decision
// (not the reading) is capped.
func (nw *Network) PeakInbox() int { return nw.peak }

// Reset drops all queued, delayed, and delivered messages, keeping
// counters.
func (nw *Network) Reset() {
	for p := 0; p < nw.n; p++ {
		nw.current[p] = nw.current[p][:0]
		nw.next[p] = nw.next[p][:0]
	}
	for due := range nw.delayed {
		delete(nw.delayed, due)
	}
}
