package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"plb/internal/engine"
	"plb/internal/sim"
	"plb/internal/transport"
)

// layer names one span kind: a call into one layer of the program,
// wrapped from the benchmark's own files.
type layer int

const (
	simStep      layer = iota // sim.Machine.Step
	coreBalancer              // core.Balancer.Step, inside simStep
	fleetTick                 // one endpoint loop iteration: Deliver + every Node.Tick
	sockDeliver               // socktrans Deliver
	nodeTick                  // node.Node.Tick
	sockSend                  // socktrans Send
	sockInbox                 // socktrans Inbox
	loadgenTick               // one load-generator tick
	numLayers
)

var layerNames = [numLayers]string{
	"sim.step", "core.balancer.step", "fleet.tick", "socktrans.deliver",
	"node.tick", "socktrans.send", "socktrans.inbox", "loadgen.tick",
}

// clock is the span time base: monotonic nanoseconds since start-up.
var clock = time.Now()

func nanotime() int64 { return int64(time.Since(clock)) }

// span is one recorded call; spans of one tick (or machine step) share
// a trace id, "<workload>/<tick>". Parent is 0 for a root.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	tick   int64
}

type frame struct {
	layer        layer
	id           int64
	start, child int64
}

// tracer records spans for the calls made by one goroutine — a loop
// that owns its layers' objects, so no locking is needed. Self and
// total times aggregate every traced call; full spans are kept only
// for ticks where keep is set.
type tracer struct {
	on, keep bool
	tick     int64
	idBase   int64
	next     int64
	stack    []frame

	total, self [numLayers]int64
	spans       []span
}

func newTracer(idx int) *tracer { return &tracer{idBase: int64(idx) << 40} }

// root opens a root span for one tick; on and keep decide whether this
// tick is traced at all and whether its spans are kept in full. The
// flags hold until the matching end, so begin/end always pair up.
func (t *tracer) root(l layer, on, keep bool, tick int64) {
	t.on, t.keep, t.tick = on, keep && on, tick
	t.begin(l)
}

func (t *tracer) begin(l layer) {
	if !t.on {
		return
	}
	t.next++
	t.stack = append(t.stack, frame{layer: l, id: t.idBase + t.next, start: nanotime()})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	now := nanotime()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.total[f.layer] += d
	t.self[f.layer] += d - f.child
	var parent int64
	if len(t.stack) > 0 {
		top := &t.stack[len(t.stack)-1]
		top.child += d
		parent = top.id
	}
	if t.keep {
		t.spans = append(t.spans, span{tick: t.tick, ID: f.id, Parent: parent,
			Name: layerNames[f.layer], Start: f.start, End: now})
	}
	if len(t.stack) == 0 {
		t.on, t.keep = false, false // calls outside a root are not traced
	}
}

// merge adds o's total and self times to t's.
func (t *tracer) merge(o *tracer) {
	for l := range t.total {
		t.total[l] += o.total[l]
		t.self[l] += o.self[l]
	}
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path, workload string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for i := range t.spans {
			s := &t.spans[i]
			s.Trace = fmt.Sprintf("%s/%d", workload, s.tick)
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// tracedBalancer times core.Balancer.Step inside the machine step. It
// forwards the optional sim.BackendNamer and sim.MetricsExtender hooks
// so the machine reports exactly what the bare balancer reports.
type tracedBalancer struct {
	inner sim.Balancer
	t     *tracer
}

var (
	_ sim.BackendNamer    = (*tracedBalancer)(nil)
	_ sim.MetricsExtender = (*tracedBalancer)(nil)
)

func (b *tracedBalancer) Name() string        { return b.inner.Name() }
func (b *tracedBalancer) Init(m *sim.Machine) { b.inner.Init(m) }

func (b *tracedBalancer) Step(m *sim.Machine) {
	b.t.begin(coreBalancer)
	b.inner.Step(m)
	b.t.end()
}

func (b *tracedBalancer) BackendName() string {
	if bn, ok := b.inner.(sim.BackendNamer); ok {
		return bn.BackendName()
	}
	return "sim"
}

func (b *tracedBalancer) ExtendMetrics(m *engine.Metrics) {
	if ext, ok := b.inner.(sim.MetricsExtender); ok {
		ext.ExtendMetrics(m)
	}
}

// tracedTransport times Send, Deliver and Inbox on one endpoint and
// captures the messages it sends to other endpoints (on kept ticks) for
// the wire-codec replay. It forwards transport.KindCounter.
type tracedTransport struct {
	transport.Transport
	t     *tracer
	local map[int32]bool

	sends, remote int64 // Send calls and those leaving the endpoint, on traced ticks
	captured      []transport.Message
}

var _ transport.KindCounter = (*tracedTransport)(nil)

func (tt *tracedTransport) Send(m transport.Message) {
	if !tt.t.on {
		tt.Transport.Send(m)
		return
	}
	tt.t.begin(sockSend)
	tt.Transport.Send(m)
	tt.t.end()
	tt.sends++
	if !tt.local[m.To] {
		tt.remote++
		if tt.t.keep {
			tt.captured = append(tt.captured, m)
		}
	}
}

func (tt *tracedTransport) Deliver() {
	tt.t.begin(sockDeliver)
	tt.Transport.Deliver()
	tt.t.end()
}

func (tt *tracedTransport) Inbox(p int) []transport.Message {
	tt.t.begin(sockInbox)
	in := tt.Transport.Inbox(p)
	tt.t.end()
	return in
}

func (tt *tracedTransport) SentByKind() [transport.KindMax]int64 {
	return tt.Transport.(transport.KindCounter).SentByKind()
}
