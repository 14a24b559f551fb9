package node

import "plb/internal/transport"

// memBus is the in-memory network of a Fleet with Network "mem": the
// paper's unit-latency link between n processors, shared by every
// endpoint of the fleet. A frame sent during step t is readable at
// step t+1, in send order. The fleet drives it from one goroutine, so
// it takes no locks.
type memBus struct {
	next, cur [][]transport.Message // per id: accumulating, readable
	down      []bool                // ids whose endpoint is closed
}

func newMemBus(n int) *memBus {
	return &memBus{
		next: make([][]transport.Message, n),
		cur:  make([][]transport.Message, n),
		down: make([]bool, n),
	}
}

// view hosts ids on the bus: the endpoint's own transport, which sends
// to any id but delivers and reads only its own. Hosting an id marks
// it up again after a Close.
func (b *memBus) view(ids []int32) *memView {
	for _, id := range ids {
		b.down[id] = false
	}
	return &memView{bus: b, ids: ids}
}

// memView is one endpoint's transport on a memBus. Its counters cover
// the frames it sent, so a killed endpoint's books fold into the
// fleet's dead totals like a socket endpoint's.
type memView struct {
	bus   *memBus
	ids   []int32
	stats transport.Stats
	kinds [transport.KindMax]int64
}

var (
	_ transport.Transport   = (*memView)(nil)
	_ transport.KindCounter = (*memView)(nil)
)

// N implements transport.Transport.
func (v *memView) N() int { return len(v.bus.next) }

// Send implements transport.Transport: the frame joins its recipient's
// next window. A frame for an id outside the fleet is GoneLost; one
// for an id whose endpoint is down is CrashLost.
func (v *memView) Send(m transport.Message) {
	v.stats.Sent++
	if m.Kind > 0 && m.Kind < transport.KindMax {
		v.kinds[m.Kind]++
	}
	switch {
	case m.To < 0 || int(m.To) >= len(v.bus.next):
		v.stats.GoneLost++
	case v.bus.down[m.To]:
		v.stats.CrashLost++
	default:
		v.bus.next[m.To] = append(v.bus.next[m.To], m)
	}
}

// Deliver implements transport.Transport: swaps in this endpoint's
// ids' windows, leaving every other endpoint's untouched. A drained
// window far larger than the traffic it last carried is released, not
// recycled: the boot join volley fills every id's window with N−1
// frames once, and recycling would keep that burst allocated for the
// fleet's life.
func (v *memView) Deliver() {
	b := v.bus
	for _, id := range v.ids {
		old := b.cur[id]
		if cap(old) > 64 && cap(old) > 4*len(old) {
			old = nil
		}
		b.cur[id], b.next[id] = b.next[id], old[:0]
	}
}

// Inbox implements transport.Transport.
func (v *memView) Inbox(p int) []transport.Message { return v.bus.cur[p] }

// Stats implements transport.Transport.
func (v *memView) Stats() transport.Stats { return v.stats }

// SentByKind implements transport.KindCounter.
func (v *memView) SentByKind() [transport.KindMax]int64 { return v.kinds }

// Close implements transport.Transport: the endpoint's ids go down and
// whatever was queued for them dies with it, as frames in a killed
// process's socket buffers do.
func (v *memView) Close() error {
	b := v.bus
	for _, id := range v.ids {
		b.down[id] = true
		b.next[id] = b.next[id][:0]
	}
	return nil
}
