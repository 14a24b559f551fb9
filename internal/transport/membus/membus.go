// Package membus is the in-memory network: the paper's synchronous
// machine, in which every message takes one step. It carries the
// lockstep protocol (internal/proto, one view of every id) and
// node.Fleet on the "mem" network (one view per endpoint). It takes no
// locks; its one user drives it from one goroutine.
//
// The bus keeps one window clock. The first view to deliver in a step
// opens the bus's next window, and every view that delivers later in
// that step opens the same window. A frame sent while window w is open
// — by a node, or by a chaostrans wrapper releasing a delayed frame —
// is readable in window w+1 on every view, whatever order the views
// deliver in. Each inbox is stably sorted by sender, so a run is a
// pure function of what was sent.
//
// The bus draws no link fates; chaostrans does, over this bus as over
// sockets. It books only the losses the medium itself sees: a frame to
// an id outside [0, n) is GoneLost, a frame to an id whose view was
// closed is CrashLost, and an installed check can empty an inbox at
// delivery time.
package membus

import (
	"cmp"
	"slices"

	"plb/internal/transport"
)

// Loss names the counter an inbox the check discards is booked under.
type Loss uint8

const (
	// Kept delivers the inbox.
	Kept Loss = iota
	// CrashLost discards it: the recipient is crashed.
	CrashLost
	// GoneLost discards it: the recipient is outside the membership.
	GoneLost
)

// Bus is one in-memory network among n ids.
type Bus struct {
	win   int64                 // windows opened so far
	cur   [][]transport.Message // per id: the open window's inbox
	pend  [][]transport.Message // per id: frames not yet delivered, in send order
	stamp []int64               // per id: the window open when pend last grew
	cut   []int32               // per id: pend[:cut] was sent before window stamp opened
	down  []bool                // ids whose view was closed
	check func(id int32, win int64) Loss
}

// New creates a bus among n ids, all up.
func New(n int) *Bus {
	return &Bus{
		cur:   make([][]transport.Message, n),
		pend:  make([][]transport.Message, n),
		stamp: make([]int64, n),
		cut:   make([]int32, n),
		down:  make([]bool, n),
	}
}

// SetCheck installs the delivery-time check: when a view opens window
// win, it decides whether id still listens. It is asked only about
// non-empty inboxes; nil removes it.
func (b *Bus) SetCheck(c func(id int32, win int64) Loss) { b.check = c }

// View hosts ids on the bus: an endpoint's own transport, which sends
// to any id but delivers only its own. Hosting an id marks it up again
// after a Close.
func (b *Bus) View(ids []int32) *View {
	for _, id := range ids {
		b.down[id] = false
	}
	return &View{bus: b, ids: ids, win: b.win}
}

// View is one endpoint's transport on a Bus. Its counters cover the
// frames it sent and the inboxes it discarded, so a killed endpoint's
// books fold into a fleet's dead totals like a socket endpoint's.
type View struct {
	bus   *Bus
	ids   []int32
	win   int64 // the last window this view opened
	stats transport.Stats
	kinds [transport.KindMax]int64
}

var (
	_ transport.Transport   = (*View)(nil)
	_ transport.KindCounter = (*View)(nil)
)

// N implements transport.Transport.
func (v *View) N() int { return len(v.bus.pend) }

// Send implements transport.Transport: the frame joins its recipient's
// pending frames, readable from the window after the one open now.
func (v *View) Send(m transport.Message) {
	v.stats.Sent++
	if m.Kind > 0 && m.Kind < transport.KindMax {
		v.kinds[m.Kind]++
	}
	b := v.bus
	switch {
	case m.To < 0 || int(m.To) >= len(b.pend):
		v.stats.GoneLost++
	case b.down[m.To]:
		v.stats.CrashLost++
	default:
		if b.stamp[m.To] != b.win {
			b.stamp[m.To], b.cut[m.To] = b.win, int32(len(b.pend[m.To]))
		}
		b.pend[m.To] = append(b.pend[m.To], m)
	}
}

// Deliver implements transport.Transport: opens the bus's next window
// if this view already opened the current one, else catches up to the
// current one, and makes every frame sent to this view's ids before
// that window opened readable. A drained window far larger than the
// window that replaces it is released, not recycled: a fleet's boot
// join volley fills every id's window with n−1 frames once, and
// recycling would keep that burst allocated for the fleet's life.
func (v *View) Deliver() {
	b := v.bus
	if v.win == b.win {
		b.win++
	}
	v.win = b.win
	for _, id := range v.ids {
		in, old := b.pend[id], b.cur[id]
		if cap(old) > 64 && cap(old) > 4*len(in) {
			old = nil
		}
		if b.stamp[id] == v.win {
			// Sent since this window opened: readable in the next one.
			b.pend[id] = append(old[:0], in[b.cut[id]:]...)
			in = in[:b.cut[id]]
		} else {
			b.pend[id] = old[:0]
		}
		b.cut[id] = 0
		if len(in) > 0 && b.check != nil {
			switch b.check(id, v.win) {
			case CrashLost:
				v.stats.CrashLost += int64(len(in))
				in = in[:0]
			case GoneLost:
				v.stats.GoneLost += int64(len(in))
				in = in[:0]
			}
		}
		slices.SortStableFunc(in, func(x, y transport.Message) int { return cmp.Compare(x.From, y.From) })
		b.cur[id] = in
	}
}

// Inbox implements transport.Transport.
func (v *View) Inbox(p int) []transport.Message { return v.bus.cur[p] }

// Stats implements transport.Transport.
func (v *View) Stats() transport.Stats { return v.stats }

// SentByKind implements transport.KindCounter.
func (v *View) SentByKind() [transport.KindMax]int64 { return v.kinds }

// Close implements transport.Transport: the view's ids go down, and
// whatever was queued or delivered for them dies with it, as frames in
// a killed process's socket buffers do.
func (v *View) Close() error {
	b := v.bus
	for _, id := range v.ids {
		b.down[id] = true
		b.cur[id], b.pend[id], b.cut[id] = b.cur[id][:0], b.pend[id][:0], 0
	}
	return nil
}
