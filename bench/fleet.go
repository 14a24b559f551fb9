package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"plb/internal/cli"
	"plb/internal/gen"
	"plb/internal/node"
	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/transport/socktrans"
	"plb/internal/wire"
	"plb/internal/xrand"
)

// fleetSpec is a socket fleet of node runtimes driven by the
// benchmark's open-loop generator.
type fleetSpec struct {
	n, endpoints int
	model        string // workload grammar spec for the generator's arrivals
	setups       int    // fleets booted; setup_s is the median, the last one is measured
}

const (
	tickEvery     = time.Millisecond // node and generator tick period
	genRetryAfter = 16               // generator ticks before an unacked block is resent
	keepEvery     = 16               // a traced run keeps every 16th tick's spans in full
	maxLateMS     = 5.0              // a run whose generator ran later than this at p99 is invalid
)

// sentKinds are the message kinds a fleet and its generator send; each
// gets a socktrans.frames_per_task.<kind> metric.
var sentKinds = []transport.Kind{
	transport.KindQuery, transport.KindID, transport.KindTransfer, transport.KindProbe,
	transport.KindHeartbeat, transport.KindTransferAck, transport.KindJoin,
}

// endpoint is one daemon's worth of the fleet: a UDS socktrans endpoint
// hosting a contiguous block of ids, ticked by its own loop — lbsimd's
// daemon loop (1 ms ticker, Deliver, Tick every node).
type endpoint struct {
	tr    transport.Transport
	tt    *tracedTransport // nil when untraced
	t     *tracer
	nodes []*node.Node
	ticks atomic.Int64
	stop  chan struct{}
	done  chan struct{}
}

func (ep *endpoint) loop(traceOn *atomic.Bool) {
	defer close(ep.done)
	tk := time.NewTicker(tickEvery)
	defer tk.Stop()
	for {
		select {
		case <-ep.stop:
			return
		case <-tk.C:
		}
		tick := ep.ticks.Load()
		if ep.t != nil {
			ep.t.root(fleetTick, traceOn.Load(), tick%keepEvery == 0, tick)
		}
		ep.tr.Deliver()
		for _, nd := range ep.nodes {
			if ep.t != nil {
				ep.t.begin(nodeTick)
			}
			nd.Tick()
			if ep.t != nil {
				ep.t.end()
			}
		}
		if ep.t != nil {
			ep.t.end()
		}
		ep.ticks.Add(1)
	}
}

// fleet is the deployment under test plus its generator.
type fleet struct {
	eps     []*endpoint
	gen     *loadgen
	running bool // endpoint loops started
	traceOn atomic.Bool
}

// bootFleet binds the endpoints on abstract Unix sockets (no files),
// builds every node (each sends its join volley), starts the loops, and
// connects the generator, which sends its own join volley.
func bootFleet(spec fleetSpec, seed uint64, rep int, traced bool) (*fleet, error) {
	f := &fleet{}
	table := make(map[int32]string, spec.n)
	locals := make([][]int32, spec.endpoints)
	for id := 0; id < spec.n; id++ {
		e := id * spec.endpoints / spec.n
		locals[e] = append(locals[e], int32(id))
		table[int32(id)] = fmt.Sprintf("@plbbench-%d-%d-%d", os.Getpid(), rep, e)
	}
	for e, ids := range locals {
		sock, err := socktrans.New(socktrans.Config{
			Network: "unix", Listen: table[ids[0]], N: spec.n, Local: ids, Peers: table,
			Seed: seed + uint64(e),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		ep := &endpoint{tr: sock, stop: make(chan struct{}), done: make(chan struct{})}
		if traced {
			ep.t = newTracer(e + 1)
			ep.tt = &tracedTransport{Transport: sock, t: ep.t, local: map[int32]bool{}}
			for _, id := range ids {
				ep.tt.local[id] = true
			}
			ep.tr = ep.tt
		}
		f.eps = append(f.eps, ep)
		for _, id := range ids {
			nd, err := node.New(ep.tr, node.Config{ID: id, N: spec.n, Seed: seed})
			if err != nil {
				f.close()
				return nil, err
			}
			ep.nodes = append(ep.nodes, nd)
		}
	}
	f.running = true
	for _, ep := range f.eps {
		go ep.loop(&f.traceOn)
	}
	g, err := newLoadgen(spec, seed, table, traced)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gen = g
	return f, nil
}

// close stops every loop, waits for it, and closes every transport.
func (f *fleet) close() {
	for _, ep := range f.eps {
		if f.running {
			close(ep.stop)
			<-ep.done
		}
		ep.tr.Close()
	}
	if f.gen != nil {
		f.gen.tr.Close()
	}
}

func (f *fleet) ticks() int64 {
	var sum int64
	for _, ep := range f.eps {
		sum += ep.ticks.Load()
	}
	return sum
}

// traffic sums the frames sent, by kind, and the frames dropped over
// every endpoint and the generator.
func (f *fleet) traffic() (kinds [transport.KindMax]int64, dropped int64) {
	trs := []transport.Transport{f.gen.tr}
	for _, ep := range f.eps {
		trs = append(trs, ep.tr)
	}
	for _, tr := range trs {
		k := tr.(transport.KindCounter).SentByKind()
		for i := range kinds {
			kinds[i] += k[i]
		}
		dropped += tr.Stats().Dropped
	}
	return kinds, dropped
}

// injection is one acknowledged block of tasks the generator shipped.
type injection struct {
	to       int32
	tasks    []task.Task
	due      time.Time // when the block was due: accept latency runs from here
	sentTick int64
}

// loadgen is the benchmark's open-loop generator. It speaks the same
// protocol as node.Gen — a join volley, acknowledged KindTransfer blocks
// from node.LoadGenID resent after genRetryAfter ticks, KindProbe status
// polls — but paces blocks on a due-time schedule instead of sleeping
// after each tick's work, so the offered rate never follows its own
// speed, and it keeps the workload's service weights.
type loadgen struct {
	tr      transport.Transport
	tt      *tracedTransport
	t       *tracer
	n       int
	model   gen.Model
	weigher gen.Weigher
	rng     *xrand.Stream

	nextSeq                          int32
	pending                          map[int32]*injection
	generated, acked, blocks, resent int64
	accept, late                     []float64 // ms
}

func newLoadgen(spec fleetSpec, seed uint64, table map[int32]string, traced bool) (*loadgen, error) {
	mod, weigher, err := cli.BuildWorkload(spec.model, spec.n, seed)
	if err != nil {
		return nil, err
	}
	sock, err := socktrans.New(socktrans.Config{
		Network: "unix", N: spec.n, Local: []int32{node.LoadGenID}, Peers: table,
	})
	if err != nil {
		return nil, err
	}
	g := &loadgen{
		tr: sock, n: spec.n, model: mod, weigher: weigher,
		rng:     xrand.New(seed).Split(0x10ad),
		pending: make(map[int32]*injection),
	}
	if traced {
		g.t = newTracer(0)
		g.tt = &tracedTransport{Transport: sock, t: g.t, local: map[int32]bool{}}
		g.tr = g.tt
	}
	for p := 0; p < spec.n; p++ {
		g.tr.Send(transport.Message{From: node.LoadGenID, To: int32(p), Kind: transport.KindJoin})
	}
	return g, nil
}

// poll opens a delivery window and takes in acks and, when statuses is
// non-nil, status replies.
func (g *loadgen) poll(statuses map[int32]node.Status) error {
	g.tr.Deliver()
	now := time.Now()
	for _, m := range g.tr.Inbox(int(node.LoadGenID)) {
		switch {
		case m.Kind == transport.KindTransferAck:
			if x, ok := g.pending[m.B]; ok && x.to == m.From {
				g.acked += int64(len(x.tasks))
				g.accept = append(g.accept, ms(now.Sub(x.due)))
				delete(g.pending, m.B)
			}
		case m.Kind == transport.KindProbe && m.B == 2 && statuses != nil:
			var st node.Status
			if err := json.Unmarshal(m.Blob, &st); err != nil {
				return fmt.Errorf("status reply from %d: %w", m.From, err)
			}
			statuses[m.From] = st
		}
	}
	return nil
}

func (g *loadgen) send(seq int32, x *injection) {
	g.tr.Send(transport.Message{From: node.LoadGenID, To: x.to, Kind: transport.KindTransfer,
		A: int32(len(x.tasks)), B: seq, Tasks: x.tasks, Blob: []byte{1}})
}

// tick runs generator tick k, due at due: collect acks, ship this
// tick's arrivals (when generate is set), resend stale blocks.
func (g *loadgen) tick(k int64, due time.Time, generate bool) error {
	if err := g.poll(nil); err != nil {
		return err
	}
	if generate {
		for p := 0; p < g.n; p++ {
			c := g.model.Generate(p, g.rng, k)
			if c == 0 {
				continue
			}
			block := make([]task.Task, c)
			for i := range block {
				w := int32(1)
				if g.weigher != nil {
					w = g.weigher.Weight(p, g.rng, k)
				}
				// Birth is stamped by the receiving node's clock.
				block[i] = task.Task{Origin: int32(p), Birth: -1, Weight: w, Remaining: w}
			}
			x := &injection{to: int32(p), tasks: block, due: due, sentTick: k}
			seq := g.nextSeq
			g.nextSeq++
			g.pending[seq] = x
			g.generated += int64(c)
			g.blocks++
			g.send(seq, x)
		}
	}
	for seq, x := range g.pending {
		if k-x.sentTick >= genRetryAfter {
			x.sentTick = k
			g.resent++
			g.send(seq, x)
		}
	}
	return nil
}

// probe polls every node for its status until all have answered.
func (g *loadgen) probe(deadline time.Time) ([]node.Status, error) {
	got := make(map[int32]node.Status, g.n)
	var asked time.Time
	for len(got) < g.n {
		if time.Now().After(deadline) {
			return nil, checkFailed("fleet.probe", "%d/%d nodes answered the status probe", len(got), g.n)
		}
		if time.Since(asked) > 100*time.Millisecond {
			asked = time.Now()
			for p := 0; p < g.n; p++ {
				if _, ok := got[int32(p)]; !ok {
					g.tr.Send(transport.Message{From: node.LoadGenID, To: int32(p), Kind: transport.KindProbe, B: 1})
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
		if err := g.poll(got); err != nil {
			return nil, err
		}
	}
	out := make([]node.Status, 0, g.n)
	for p := 0; p < g.n; p++ {
		out = append(out, got[int32(p)])
	}
	return out, nil
}

// window is one traceBlock-long stretch of the generation window:
// process CPU, wall time and endpoint ticks in it, and whether it was
// traced.
type window struct {
	cpu, wall time.Duration
	ticks     int64
	traced    bool
}

func runFleet(name string, spec fleetSpec, rc runConfig) (*result, error) {
	res := &result{Values: map[string]float64{}}
	var (
		f      *fleet
		setups []float64
	)
	for i := 0; i < spec.setups; i++ {
		start := time.Now()
		fi, err := bootFleet(spec, rc.seed, i, rc.traced)
		if err != nil {
			return nil, err
		}
		sts, err := fi.gen.probe(start.Add(30 * time.Second))
		if err != nil {
			fi.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		_, tot := node.MergeStatuses(sts)
		if tot.Generated+tot.Injected+tot.Queued != 0 {
			fi.close()
			return nil, checkFailed("fleet.fresh", "a fresh fleet holds work: %+v", tot)
		}
		if i < spec.setups-1 {
			fi.close()
			runtime.GC()
			continue
		}
		f = fi
	}
	defer f.close()
	g := f.gen

	ticks := int64(rc.window / tickEvery)
	blockTicks := int64(traceBlock / tickEvery)
	var wins []window
	kinds0, dropped0 := f.traffic()
	g0, cpu0, eticks0 := sampleGo(), cpuTime(), f.ticks()
	// Tick k is due at a seeded offset inside [k, k+1) ticks: the node
	// tickers keep one phase for a whole run, and arrivals locked to a
	// phase of their own would make the accept and sojourn times depend
	// on the accident of that phase.
	phase := xrand.New(rc.seed).Split(0x9a5e)
	t0 := time.Now()
	wCPU, wTicks, wStart := cpu0, eticks0, t0
	for k := int64(0); ; k++ {
		due := t0.Add(time.Duration(k)*tickEvery + time.Duration(phase.Float64()*float64(tickEvery)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		generate := k < ticks
		if k > 0 && k <= ticks && (k%blockTicks == 0 || k == ticks) {
			// Close the window; a traced run flips tracing, which stays
			// off after the last window.
			now, c, et := time.Now(), cpuTime(), f.ticks()
			wins = append(wins, window{cpu: c - wCPU, wall: now.Sub(wStart), ticks: et - wTicks, traced: f.traceOn.Load()})
			wCPU, wStart, wTicks = c, now, et
			if rc.traced {
				f.traceOn.Store(generate && !f.traceOn.Load())
			}
		}
		if generate {
			g.late = append(g.late, ms(time.Since(due)))
		} else if len(g.pending) == 0 {
			break
		} else if time.Since(due) > 30*time.Second {
			return nil, checkFailed("fleet.acked", "%d blocks still unacknowledged 30s after the last tick", len(g.pending))
		}
		if g.t != nil {
			g.t.root(loadgenTick, f.traceOn.Load(), k%keepEvery == 0, k)
		}
		err := g.tick(k, due, generate)
		if g.t != nil {
			g.t.end()
		}
		if err != nil {
			return nil, err
		}
	}

	// Drain to idle: every task acknowledged, completed, and nothing
	// queued or riding a transfer.
	var sts []node.Status
	for {
		var err error
		if sts, err = g.probe(time.Now().Add(30 * time.Second)); err != nil {
			return nil, err
		}
		_, tot := node.MergeStatuses(sts)
		if tot.Queued == 0 && tot.Inflight == 0 && tot.Completed == g.generated {
			break
		}
		if time.Since(t0) > rc.window+60*time.Second {
			return nil, checkFailed("fleet.idle", "fleet not idle 60s after the last tick: %+v", tot)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wall := time.Since(t0)
	cpu1, eticks1, g1 := cpuTime(), f.ticks(), sampleGo()
	kinds1, dropped1 := f.traffic()

	_, tot := node.MergeStatuses(sts)
	if err := fleetChecks(g, tot, res); err != nil {
		return nil, err
	}
	completed := tot.Completed
	res.Attempted, res.Failed = g.generated, g.generated-completed

	v := res.Values
	epTicks := float64(eticks1-eticks0) / float64(len(f.eps))
	msPerTick := ms(wall) / epTicks
	v["setup_s"] = quantile(setups, 0.5)
	v["steps_per_s"] = epTicks / wall.Seconds()
	v["tasks_per_s"] = float64(completed) / wall.Seconds()
	v["cpu_us_per_task"] = float64(cpu1-cpu0) / float64(time.Microsecond) / float64(completed)
	v["loadgen.accept_p50_ms"] = quantile(g.accept, 0.50)
	v["loadgen.accept_p99_ms"] = quantile(g.accept, 0.99)
	v["task.sojourn_mean_ms"] = tot.Recorder.MeanWait() * msPerTick
	taskMetrics(v, &tot.Recorder)

	v["loop.tick_period_ms"] = msPerTick
	v["task.moved_per_task"] = float64(tot.Acked) / float64(completed)
	v["node.retries_per_ktask"] = 1000 * float64(tot.Retries) / float64(completed)
	v["node.dup_dropped_per_ktask"] = 1000 * float64(tot.DupDropped) / float64(completed)
	var frames int64
	for _, k := range sentKinds {
		v["socktrans.frames_per_task."+k.String()] = float64(kinds1[k]-kinds0[k]) / float64(completed)
	}
	for k := range kinds1 {
		frames += kinds1[k] - kinds0[k]
	}
	v["socktrans.frames_per_task"] = float64(frames) / float64(completed)
	v["socktrans.dropped"] = float64(dropped1 - dropped0)
	goMetrics(v, g0, g1, int64(epTicks), completed)
	loadgenMetrics(v, g.accept, g.late, float64(g.resent)/float64(max(g.blocks, 1)))
	if len(g.late) >= 1000 { // a p99 needs ten samples beyond it
		if v["loadgen.late_p99_ms"] > maxLateMS {
			return nil, checkFailed("loadgen.late", "generator ran %.2f ms late at p99 (limit %g ms): the run is invalid, not slow",
				v["loadgen.late_p99_ms"], maxLateMS)
		}
		res.Checks = append(res.Checks, "loadgen.late")
	}
	g.accept, g.late = nil, nil // harness samples are not the fleet's memory
	v["heap_live_mb"] = heapLiveMB()

	if rc.traced {
		if err := fleetTraceMetrics(v, f, wins, float64(frames)/float64(completed), name, rc.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fleetChecks verifies the exact ledger at idle: every generated task
// acknowledged, injected exactly once, and completed, with nothing
// queued or in flight and no local generation.
func fleetChecks(g *loadgen, tot node.Status, res *result) error {
	checks := []struct {
		name string
		ok   bool
	}{
		{"fleet.acked", g.acked == g.generated},
		{"fleet.injected", tot.Injected == g.generated},
		{"fleet.completed", tot.Completed == g.generated},
		{"fleet.idle", tot.Queued == 0 && tot.Inflight == 0},
		{"fleet.local_generated", tot.Generated == 0},
	}
	for _, c := range checks {
		if !c.ok {
			return checkFailed(c.name, "generated %d, acked %d, injected %d, completed %d, queued %d, inflight %d, local generated %d",
				g.generated, g.acked, tot.Injected, tot.Completed, tot.Queued, tot.Inflight, tot.Generated)
		}
		res.Checks = append(res.Checks, c.name)
	}
	return nil
}

// fleetTraceMetrics derives the per-layer shares from the traced
// windows: each is a share of the endpoint loops' wall time.
func fleetTraceMetrics(v map[string]float64, f *fleet, wins []window, framesPerTask float64, name, spansPath string) error {
	var on, off window // totals over the traced and the untraced windows
	for _, w := range wins {
		s := &off
		if w.traced {
			s = &on
		}
		s.cpu, s.wall, s.ticks = s.cpu+w.cpu, s.wall+w.wall, s.ticks+w.ticks
	}
	tracers := []*tracer{f.gen.t}
	var agg tracer
	var sends, remote, epRemote int64
	captured := f.gen.tt.captured
	sends, remote = f.gen.tt.sends, f.gen.tt.remote
	for _, ep := range f.eps {
		agg.merge(ep.t)
		tracers = append(tracers, ep.t)
		sends += ep.tt.sends
		remote += ep.tt.remote
		epRemote += ep.tt.remote
		captured = append(captured, ep.tt.captured...)
	}
	loopWall := float64(on.wall) * float64(len(f.eps))
	v["loop.busy_share"] = float64(agg.total[fleetTick]) / loopWall
	v["node.tick_share"] = float64(agg.self[nodeTick]) / loopWall
	v["socktrans.send_share"] = float64(agg.total[sockSend]) / loopWall
	v["socktrans.deliver_share"] = float64(agg.total[sockDeliver]) / loopWall
	v["socktrans.inbox_share"] = float64(agg.total[sockInbox]) / loopWall
	v["trace.overhead_share"] = (float64(on.cpu)/float64(max(on.ticks, 1)))/(float64(off.cpu)/float64(max(off.ticks, 1))) - 1

	encNs, decNs, bytes, allocs, err := replayWire(captured)
	if err != nil {
		return err
	}
	remotePerTask := framesPerTask * float64(remote) / float64(max(sends, 1))
	v["wire.bytes_per_frame"] = bytes
	v["wire.bytes_per_task"] = bytes * remotePerTask
	v["wire.encode_share"] = encNs * float64(epRemote) / loopWall
	v["wire.decode_share"] = decNs * float64(epRemote) / loopWall
	v["wire.allocs_per_frame"] = allocs
	if spansPath != "" {
		return writeSpans(spansPath, name, tracers...)
	}
	return nil
}

// replayWire runs the captured frames back through the codec: mean
// encode and decode time per frame, mean framed size in bytes (with the
// 4-byte length prefix), and allocations per decode.
func replayWire(msgs []transport.Message) (encNs, decNs, bytes, allocs float64, err error) {
	if len(msgs) == 0 {
		return 0, 0, 0, 0, nil
	}
	bodies := make([][]byte, len(msgs))
	var total int
	for i, m := range msgs {
		if bodies[i], err = wire.AppendMessage(nil, m); err != nil {
			return 0, 0, 0, 0, err
		}
		total += 4 + len(bodies[i])
	}
	const minReplay = 50 * time.Millisecond
	var buf []byte
	n, start := 0, time.Now()
	for time.Since(start) < minReplay {
		for _, m := range msgs {
			buf, _ = wire.AppendMessage(buf[:0], m)
		}
		n++
	}
	encNs = float64(time.Since(start)) / float64(n*len(msgs))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n, start = 0, time.Now()
	for time.Since(start) < minReplay {
		for _, b := range bodies {
			if _, err := wire.DecodeMessage(b); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("wire replay: %w", err)
			}
		}
		n++
	}
	decNs = float64(time.Since(start)) / float64(n*len(msgs))
	runtime.ReadMemStats(&ms1)
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n*len(msgs))
	return encNs, decNs, float64(total) / float64(len(msgs)), allocs, nil
}
