// Package socktrans carries the protocol over real sockets: TCP for
// fleets spanning machines, Unix-domain sockets for fleets of
// processes on one box. It implements transport.Transport, framing
// every message with the internal/wire codec.
//
// Connection management is dial-on-demand with reconnection: each
// remote address gets one outbound connection, created the first time
// a frame is queued for it and re-dialed with exponential backoff when
// it breaks; frames queued while a peer is down flow when it returns
// (bounded by the per-connection queue — overflow is counted as
// dropped, exactly the loss semantics the protocol's retry machinery
// is built for). Writes go through per-connection batched writers:
// Send encodes each frame straight onto its connection's pending
// batch, and one writer goroutine per connection hands the whole batch
// to the kernel in a single write — the dialed connection of a peer
// address and the learned reply route of a client alike, so a slow
// reader never blocks the caller. Read and write deadlines derive from
// the failure detector's suspect timeout: a connection silent for
// longer than the detector would tolerate is torn down and re-dialed.
//
// Reads are batched the same way. Each connection's reader makes one
// blocking read, then decodes every frame already whole in its buffered
// reader in place (wire.DecodeMessage copies the task block and blob
// out, so nothing aliases the buffer), and appends the run to the
// per-id pending windows under one lock; a frame larger than the buffer
// takes wire.ReadFrame's allocating path. Per-id state (local ids,
// pending and readable windows, reply routes) is slices indexed by
// id+1 over the dense range [-1, N), so the load
// generator's id -1 has a slot and no frame costs a map write. Deliver
// swaps each id's pending slice in as its readable window and reuses
// the old window's storage for the next arrivals, which is why an Inbox
// slice is only valid until the next Deliver.
//
// Peer discovery starts from a static bootstrap file mapping processor
// ids to addresses (several ids may share an address — a daemon
// hosting several processors). The first frame on every connection, in
// both directions, is a KindJoin handshake (To = -1 marks it as
// transport control) whose blob is the sender's address table; tables
// merge on receipt, so a client that knows one seed learns the fleet —
// the seed-volley discovery the in-memory protocol does with KindJoin
// membership volleys, reused at the transport layer. Endpoints without
// a listener (the load generator) are reachable by reply routing: any
// frame teaches the receiving transport to route responses for its
// From id back over the same connection.
//
// socktrans deliberately does NOT implement transport.FaultHooks:
// those hooks reach inside the in-memory network's delivery queues,
// which real sockets do not have. Fault injection for socket fleets
// happens one layer up — internal/transport/chaostrans wraps an
// endpoint and executes a fault plan at the frame boundary, and
// process-level chaos (kill, restart) is a supervisor's job.
package socktrans

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plb/internal/transport"
	"plb/internal/wire"
)

// Config parameterizes one transport endpoint.
type Config struct {
	// Network is "tcp" or "unix".
	Network string
	// Listen is the local listener address; empty means client-only
	// (reachable by reply routing, like the load generator).
	Listen string
	// N is the size of the processor id space the fleet spans.
	N int
	// Local lists the processor ids hosted behind this endpoint.
	Local []int32
	// Peers is the static bootstrap table, id -> address (see
	// LoadPeers). Ids missing here are learned from handshakes.
	Peers map[int32]string
	// SuspectAfter ties the socket deadlines to the failure detector:
	// writes must complete within it, and a connection with no traffic
	// for 4x it is torn down (heartbeats keep live ones warm). 0
	// derives 5s.
	SuspectAfter time.Duration
	// QueueLen bounds the frames queued on each connection behind the
	// batch its writer holds; overflow (a peer down, a client not
	// reading) is dropped and counted. 0 derives 256.
	QueueLen int
	// MaxFrame bounds accepted frame bodies; 0 derives
	// wire.DefaultMaxFrame.
	MaxFrame int
	// Seed derives the per-peer reconnect jitter (see backoffFor); 0
	// keeps it (the jitter is per-address even at seed zero, so a
	// shared default still de-synchronizes redials).
	Seed uint64
	// Logf, if non-nil, receives connection-management events.
	Logf func(format string, args ...any)
}

// sconn is one live connection, inbound or outbound, with serialized
// writes and one-shot handshake bookkeeping.
type sconn struct {
	c      net.Conn
	br     *bufio.Reader
	wmu    sync.Mutex
	hsSent bool
	// out queues the frames sent over this connection as a reply route;
	// its writer (routeLoop) starts on first use, and gone closes when
	// the connection is dropped.
	out     *outbox
	writing bool // guarded by Trans.mu
	gone    chan struct{}
}

// peer is the outbound side for one remote address.
type peer struct {
	addr string
	out  *outbox
}

// outbox is one connection's pending batch: frames encoded back to
// back by Send, taken whole by the connection's writer goroutine.
type outbox struct {
	mu     sync.Mutex
	buf    []byte
	frames int  // frames in buf, bounded by Config.QueueLen
	shut   bool // the writer is gone: puts drop
	wake   chan struct{}
}

var (
	errFull = errors.New("queue full")
	errShut = errors.New("connection gone")
)

func newOutbox() *outbox { return &outbox{wake: make(chan struct{}, 1)} }

// put encodes m onto the batch, waking the writer when the batch was
// empty. A frame past limit, or for a writer that is gone, is refused.
func (o *outbox) put(m transport.Message, limit int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.shut {
		return errShut
	}
	if o.frames >= limit {
		return errFull
	}
	buf, err := appendFrame(o.buf, m)
	if err != nil {
		return err
	}
	if len(o.buf) == 0 {
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
	o.buf = buf
	o.frames++
	return nil
}

// take hands the pending batch and its frame count to the writer,
// leaving spare (emptied) in its place.
func (o *outbox) take(spare []byte) ([]byte, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, k := o.buf, o.frames
	o.buf, o.frames = spare[:0], 0
	return b, k
}

// close refuses further puts and returns how many queued frames it
// discards.
func (o *outbox) close() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := o.frames
	o.shut, o.buf, o.frames = true, nil, 0
	return k
}

// completeFrames counts the whole frames at the front of b and the
// offset just past them: after a write that failed with n bytes out,
// completeFrames(batch[:n]) is how much of the batch the kernel took.
func completeFrames(b []byte) (k, off int) {
	for len(b)-off >= 4 {
		end := off + 4 + int(binary.BigEndian.Uint32(b[off:]))
		if end > len(b) {
			break
		}
		k, off = k+1, end
	}
	return k, off
}

// Trans is a socket transport endpoint.
type Trans struct {
	cfg          Config
	ln           net.Listener
	suspectAfter time.Duration
	maxFrame     int
	queueLen     int
	dial         func(network, addr string, timeout time.Duration) (net.Conn, error)

	mu    sync.Mutex
	addrs map[int32]string    // id -> dialable address
	peers map[string]*peer    // addr -> outbound writer
	conns map[*sconn]struct{} // every live connection
	// Per-id state is indexed by slot id+1 over the dense id range
	// [-1, N), so the load generator's id -1 is slot 0 (see slot).
	local   []bool
	locals  []int                 // the slots of Config.Local
	pending [][]transport.Message // arrivals per local id
	current [][]transport.Message // readable window
	routes  []*sconn              // learned reply route
	step    int64

	sent       atomic.Int64
	dropped    atomic.Int64
	miscarried atomic.Int64 // delivered here for a non-local id
	kindSent   [transport.KindMax]atomic.Int64

	closed chan struct{}
	wg     sync.WaitGroup
}

var (
	_ transport.Transport   = (*Trans)(nil)
	_ transport.KindCounter = (*Trans)(nil)
)

// New opens the endpoint: binds the listener (unless client-only) and
// starts accepting. Outbound connections are dialed on demand.
func New(cfg Config) (*Trans, error) {
	if cfg.Network != "tcp" && cfg.Network != "unix" {
		return nil, fmt.Errorf("socktrans: network %q (have tcp, unix)", cfg.Network)
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("socktrans: need n >= 1, got %d", cfg.N)
	}
	slots := cfg.N + 1
	t := &Trans{
		cfg:          cfg,
		suspectAfter: cfg.SuspectAfter,
		maxFrame:     cfg.MaxFrame,
		addrs:        make(map[int32]string),
		peers:        make(map[string]*peer),
		conns:        make(map[*sconn]struct{}),
		local:        make([]bool, slots),
		pending:      make([][]transport.Message, slots),
		current:      make([][]transport.Message, slots),
		routes:       make([]*sconn, slots),
		closed:       make(chan struct{}),
		dial:         net.DialTimeout,
	}
	if t.suspectAfter <= 0 {
		t.suspectAfter = 5 * time.Second
	}
	if t.maxFrame <= 0 {
		t.maxFrame = wire.DefaultMaxFrame
	}
	if t.queueLen = cfg.QueueLen; t.queueLen <= 0 {
		t.queueLen = 256
	}
	for _, id := range cfg.Local {
		s, ok := t.slot(id)
		if !ok {
			return nil, fmt.Errorf("socktrans: local id %d outside [-1, %d)", id, cfg.N)
		}
		if !t.local[s] {
			t.local[s] = true
			t.locals = append(t.locals, s)
		}
	}
	for id, addr := range cfg.Peers {
		if !t.isLocal(id) {
			t.addrs[id] = addr
		}
	}
	if cfg.Listen != "" {
		if cfg.Network == "unix" {
			// A stale socket file from a previous incarnation blocks the
			// bind; this endpoint owns the path.
			os.Remove(cfg.Listen)
		}
		ln, err := net.Listen(cfg.Network, cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("socktrans: listen: %w", err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// N implements transport.Transport.
func (t *Trans) N() int { return t.cfg.N }

// slot maps id to its index in the per-id slices; ok is false for an
// id outside [-1, N).
func (t *Trans) slot(id int32) (s int, ok bool) {
	s = int(id) + 1
	return s, s >= 0 && s < len(t.local)
}

// isLocal reports whether id is hosted behind this endpoint.
func (t *Trans) isLocal(id int32) bool {
	s, ok := t.slot(id)
	return ok && t.local[s]
}

// LocalAddr implements transport.Transport.
func (t *Trans) LocalAddr() string {
	if t.ln == nil {
		return t.cfg.Network + ":client"
	}
	return t.ln.Addr().String()
}

// Stats implements transport.Transport. Socket transports have no
// simulated fault machinery: Dropped counts frames this endpoint gave
// up on (no route, full queue, dead connection) and GoneLost counts
// frames that arrived for an id not hosted here.
func (t *Trans) Stats() transport.Stats {
	return transport.Stats{
		Sent:     t.sent.Load(),
		Dropped:  t.dropped.Load(),
		GoneLost: t.miscarried.Load(),
	}
}

// SentByKind implements transport.KindCounter.
func (t *Trans) SentByKind() [transport.KindMax]int64 {
	var out [transport.KindMax]int64
	for i := range out {
		out[i] = t.kindSent[i].Load()
	}
	return out
}

// Step implements transport.Transport: the count of delivery windows
// opened so far.
func (t *Trans) Step() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.step
}

// Send implements transport.Transport: frames m onto the pending batch
// toward its destination — loopback for local ids, the peer writer for
// addressable ids, the learned reply route otherwise. Send never waits
// on a socket. With no route at all, a full queue or a dead route the
// frame is dropped and counted; the protocol's retries carry the
// recovery.
func (t *Trans) Send(m transport.Message) {
	t.sent.Add(1)
	if m.Kind < transport.KindMax {
		t.kindSent[m.Kind].Add(1)
	}
	t.mu.Lock()
	if s, ok := t.slot(m.To); ok && t.local[s] {
		t.pending[s] = append(t.pending[s], m)
		t.mu.Unlock()
		return
	}
	out, closing := t.outboxFor(m.To)
	t.mu.Unlock()
	if out == nil {
		t.dropped.Add(1)
		if !closing {
			t.logf("socktrans: no route to %d for %s", m.To, m.Kind)
		}
		return
	}
	if err := out.put(m, t.queueLen); err != nil {
		t.dropped.Add(1)
		if err != errFull && err != errShut {
			t.logf("socktrans: encode %s to %d: %v", m.Kind, m.To, err)
		}
	}
}

// outboxFor returns the queue toward id — the peer writer for an
// addressable id, the learned reply route otherwise — starting its
// writer on first use. Nil means no route, or closing when the
// transport is shutting down (a writer started then would race Close's
// WaitGroup drain; a send concurrent with Close is legal and counts as
// dropped). Called with t.mu held.
func (t *Trans) outboxFor(id int32) (out *outbox, closing bool) {
	select {
	case <-t.closed:
		return nil, true
	default:
	}
	if addr, ok := t.addrs[id]; ok {
		p, ok := t.peers[addr]
		if !ok {
			p = &peer{addr: addr, out: newOutbox()}
			t.peers[addr] = p
			t.wg.Add(1)
			go t.peerLoop(p)
		}
		return p.out, false
	}
	s, ok := t.slot(id)
	if !ok {
		return nil, false
	}
	sc := t.routes[s]
	if sc == nil {
		return nil, false
	}
	if !sc.writing {
		sc.writing = true
		t.wg.Add(1)
		go t.routeLoop(sc)
	}
	return sc.out, false
}

// Deliver implements transport.Transport: opens the next delivery
// window over everything the readers buffered since the last call. Each
// local id's pending arrivals become its window by a slice swap, and
// the previous window's storage, emptied, takes the next arrivals —
// which is why an Inbox slice is only valid until the next Deliver.
func (t *Trans) Deliver() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.step++
	for _, s := range t.locals {
		t.current[s], t.pending[s] = t.pending[s], t.current[s][:0]
	}
}

// Inbox implements transport.Transport.
func (t *Trans) Inbox(p int) []transport.Message {
	s := p + 1
	if s < 0 || s >= len(t.current) {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current[s]
}

// Close implements transport.Transport: stops the listener, tears
// down every connection, and waits for the loops to exit.
func (t *Trans) Close() error {
	// The closed channel is shut under mu so outboxFor and adopt can
	// check it and register with the WaitGroup atomically — otherwise a
	// Send racing Close could spawn a writer after Wait started.
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		return nil
	default:
	}
	close(t.closed)
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	t.mu.Lock()
	for sc := range t.conns {
		sc.c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	if t.cfg.Network == "unix" && t.cfg.Listen != "" {
		os.Remove(t.cfg.Listen)
	}
	return nil
}

// Advertise returns the dialable address other endpoints should use
// to reach this one ("" for a client-only endpoint).
func (t *Trans) Advertise() string { return t.advertiseAddr() }

// AddPeers merges bootstrap entries into the address book after
// construction — how an in-process fleet wires endpoints bound to
// ephemeral ports into a full mesh once every listener is up.
func (t *Trans) AddPeers(entries map[int32]string) {
	t.mu.Lock()
	t.mergeAddrs(entries)
	t.mu.Unlock()
}

// mergeAddrs folds entries for non-local ids into the address book.
// Called with t.mu held.
func (t *Trans) mergeAddrs(entries map[int32]string) {
	for id, addr := range entries {
		if !t.isLocal(id) {
			t.addrs[id] = addr
		}
	}
}

// KnownPeers returns the ids this endpoint can currently address
// (bootstrap plus everything learned from handshakes), sorted.
func (t *Trans) KnownPeers() []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int32, 0, len(t.addrs))
	for id := range t.addrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (t *Trans) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// appendFrame appends one length-prefixed encoded message to dst; on
// an encode error dst comes back unchanged.
func appendFrame(dst []byte, m transport.Message) ([]byte, error) {
	start := len(dst)
	out, err := wire.AppendMessage(append(dst, 0, 0, 0, 0), m)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out, nil
}

// backoffFor is the reconnect pause after the attempt-th consecutive
// dial failure toward addr: exponential from 50ms capped at 2s, scaled
// by a deterministic jitter factor in [0.5, 1.5) hashed from (seed,
// addr, attempt). Pure, so the schedule is testable; jittered, so the
// endpoints that all watched one daemon die do not re-dial its revived
// incarnation in a synchronized thundering herd — the per-address hash
// de-synchronizes them even when every endpoint shares a seed.
func backoffFor(seed uint64, addr string, attempt int) time.Duration {
	const (
		base = 50 * time.Millisecond
		max  = 2 * time.Second
	)
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * 0x100000001b3
	}
	h ^= uint64(attempt) * 0xd1342543de82ef95
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	frac := float64(h>>11) / float64(1<<53) // uniform [0, 1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// peerLoop is the per-address writer: dial on demand, reconnect with
// jittered exponential backoff (backoffFor), and write each pending
// batch whole under one suspect deadline. When a write fails, the
// frames the kernel took are done and the batch resumes on the next
// connection at the first frame not fully written — never re-sending
// an accepted frame, since a duplicated KindJoin would reset the
// receiver's dedup ring. Frames queued across a peer restart flow when
// it returns, which is what lets a fleet survive a daemon bounce.
func (t *Trans) peerLoop(p *peer) {
	defer t.wg.Done()
	var (
		sc      *sconn
		batch   []byte // frames taken and not yet fully written
		attempt int
	)
	for {
		if len(batch) == 0 {
			select {
			case <-t.closed:
				return
			case <-p.out.wake:
			}
			batch, _ = p.out.take(batch)
			continue
		}
		if sc == nil {
			select {
			case <-t.closed:
				return
			default:
			}
			c, err := t.dial(t.cfg.Network, p.addr, 2*time.Second)
			if err != nil {
				backoff := backoffFor(t.cfg.Seed, p.addr, attempt)
				attempt++
				t.logf("socktrans: dial %s: %v (retry in %v)", p.addr, err, backoff)
				select {
				case <-t.closed:
					return
				case <-time.After(backoff):
				}
				continue
			}
			attempt = 0
			if sc = t.adopt(c); sc == nil {
				return // closing
			}
			t.sendHandshake(sc)
		}
		n, err := t.write(sc, batch)
		if err == nil {
			batch = batch[:0]
			continue
		}
		t.logf("socktrans: write %s: %v", p.addr, err)
		t.dropConn(sc)
		sc = nil
		_, off := completeFrames(batch[:n])
		batch = batch[:copy(batch, batch[off:])]
	}
}

// routeLoop is the writer of a learned reply route: it writes each
// pending batch whole, and when the connection dies it counts every
// frame not fully written as dropped — a client that left is not
// re-dialed.
func (t *Trans) routeLoop(sc *sconn) {
	defer t.wg.Done()
	var batch []byte
	for {
		select {
		case <-t.closed:
			return
		case <-sc.gone:
			t.dropped.Add(int64(sc.out.close()))
			return
		case <-sc.out.wake:
		}
		var k int
		batch, k = sc.out.take(batch)
		if k == 0 {
			continue
		}
		if n, err := t.write(sc, batch); err != nil {
			t.logf("socktrans: write %s: %v", sc.c.RemoteAddr(), err)
			t.dropConn(sc)
			done, _ := completeFrames(batch[:n])
			t.dropped.Add(int64(k - done + sc.out.close()))
			return
		}
	}
}

// adopt registers a fresh connection (either direction) and starts its
// reader; returns nil if the transport is already closing.
func (t *Trans) adopt(c net.Conn) *sconn {
	sc := &sconn{c: c, br: bufio.NewReader(deadlineReader{c, 4 * t.suspectAfter}),
		out: newOutbox(), gone: make(chan struct{})}
	t.mu.Lock()
	select {
	case <-t.closed:
		t.mu.Unlock()
		c.Close()
		return nil
	default:
	}
	t.conns[sc] = struct{}{}
	t.wg.Add(1) // under mu, atomic with the closed check above
	t.mu.Unlock()
	go t.readLoop(sc)
	return sc
}

// write writes b — one frame or a whole batch — under one suspect
// deadline, returning the bytes the kernel took.
func (t *Trans) write(sc *sconn, b []byte) (int, error) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.c.SetWriteDeadline(time.Now().Add(t.suspectAfter))
	return sc.c.Write(b)
}

// deadlineReader arms a connection's idle deadline before each read(2)
// it makes: the bufio.Reader above only reads when its buffer is
// drained, so a batch of frames costs one deadline, not one per frame.
type deadlineReader struct {
	c    net.Conn
	idle time.Duration
}

func (r deadlineReader) Read(p []byte) (int, error) {
	r.c.SetReadDeadline(time.Now().Add(r.idle))
	return r.c.Read(p)
}

// dropConn tears one connection down, forgets its reply routes, and
// tells its route writer. Both a writer and the reader drop a broken
// connection, so it is idempotent — but every call forgets the routes,
// since the reader may have learned one from a buffered frame after
// the writer's drop.
func (t *Trans) dropConn(sc *sconn) {
	sc.c.Close()
	t.mu.Lock()
	defer t.mu.Unlock()
	for s, r := range t.routes {
		if r == sc {
			t.routes[s] = nil
		}
	}
	if _, ok := t.conns[sc]; ok {
		delete(t.conns, sc)
		close(sc.gone)
	}
}

// sendHandshake sends the one-time address-table handshake on a
// connection.
func (t *Trans) sendHandshake(sc *sconn) {
	sc.wmu.Lock()
	sent := sc.hsSent
	sc.hsSent = true
	sc.wmu.Unlock()
	if sent {
		return
	}
	from := int32(-1)
	if len(t.cfg.Local) > 0 {
		from = t.cfg.Local[0]
	}
	frame, err := appendFrame(nil, transport.Message{
		From: from, To: -1, Kind: transport.KindJoin, Blob: t.addrTable(),
	})
	if err != nil {
		t.logf("socktrans: handshake encode: %v", err)
		return
	}
	if _, err := t.write(sc, frame); err != nil {
		t.logf("socktrans: handshake write: %v", err)
	}
}

// advertiseAddr is the dialable address handshakes announce for this
// endpoint: the configured listen address, with an ephemeral ":0" port
// replaced by the one actually bound.
func (t *Trans) advertiseAddr() string {
	if t.ln == nil {
		return ""
	}
	if t.cfg.Network == "tcp" && strings.HasSuffix(t.cfg.Listen, ":0") {
		if host, _, err := net.SplitHostPort(t.cfg.Listen); err == nil {
			if _, port, err := net.SplitHostPort(t.ln.Addr().String()); err == nil {
				return net.JoinHostPort(host, port)
			}
		}
	}
	return t.cfg.Listen
}

// addrTable renders the address book (self first) as "id addr" lines.
func (t *Trans) addrTable() []byte {
	var b strings.Builder
	if self := t.advertiseAddr(); self != "" {
		for _, id := range t.cfg.Local {
			fmt.Fprintf(&b, "%d %s\n", id, self)
		}
	}
	t.mu.Lock()
	ids := make([]int32, 0, len(t.addrs))
	for id := range t.addrs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "%d %s\n", id, t.addrs[id])
	}
	t.mu.Unlock()
	return []byte(b.String())
}

// mergeTable folds a received address table into the book.
func (t *Trans) mergeTable(blob []byte) {
	entries, err := ParsePeers(string(blob))
	if err != nil {
		t.logf("socktrans: handshake table: %v", err)
		return
	}
	t.mu.Lock()
	t.mergeAddrs(entries)
	t.mu.Unlock()
}

// acceptLoop admits inbound connections.
func (t *Trans) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			t.logf("socktrans: accept: %v", err)
			return
		}
		t.adopt(c)
	}
}

// readLoop is the per-connection reader, both directions. After each
// blocking read it decodes every frame already whole in the buffer and
// hands the run to enqueue under one lock. A handshake merges the
// address table and (once) gets answered with ours; the frames read
// before it are enqueued first.
func (t *Trans) readLoop(sc *sconn) {
	defer t.wg.Done()
	defer t.dropConn(sc)
	var batch []transport.Message
	for {
		m, ok, err := t.nextFrame(sc.br, true)
		for ; ok; m, ok, err = t.nextFrame(sc.br, false) {
			if m.Kind == transport.KindJoin && m.To == -1 {
				batch = t.enqueue(sc, batch)
				t.handshake(sc, m)
				continue
			}
			batch = append(batch, m)
		}
		batch = t.enqueue(sc, batch)
		if err != nil {
			select {
			case <-t.closed:
			default:
				t.logf("socktrans: read %s: %v", sc.c.RemoteAddr(), err)
			}
			return
		}
	}
}

// nextFrame decodes the next frame from br. With wait it blocks for
// one; without, ok is false unless a whole frame is already buffered. A
// frame that fits the buffer is decoded in place (DecodeMessage copies
// what it keeps); a larger one takes wire.ReadFrame's allocating path,
// which also rejects a body over maxFrame.
func (t *Trans) nextFrame(br *bufio.Reader, wait bool) (m transport.Message, ok bool, err error) {
	if !wait && br.Buffered() < 4 {
		return m, false, nil
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return m, false, err
	}
	end := 4 + int(binary.BigEndian.Uint32(hdr))
	if end-4 > t.maxFrame || end > br.Size() {
		if !wait {
			return m, false, nil
		}
		m, err = wire.ReadFrame(br, t.maxFrame)
		return m, err == nil, err
	}
	if !wait && br.Buffered() < end {
		return m, false, nil
	}
	b, err := br.Peek(end)
	if err != nil {
		return m, false, fmt.Errorf("wire: truncated frame: %w", err)
	}
	m, err = wire.DecodeMessage(b[4:])
	br.Discard(end)
	return m, err == nil, err
}

// enqueue buffers a run of protocol frames for the next Deliver under
// one lock: each teaches a reply route for its sender (written only
// when it moves), and frames for ids not hosted here count as
// miscarried. It returns batch emptied for reuse.
func (t *Trans) enqueue(sc *sconn, batch []transport.Message) []transport.Message {
	if len(batch) == 0 {
		return batch
	}
	t.mu.Lock()
	for i := range batch {
		m := &batch[i]
		if s, ok := t.slot(m.From); ok && t.routes[s] != sc {
			t.routes[s] = sc
		}
		if s, ok := t.slot(m.To); ok && t.local[s] {
			t.pending[s] = append(t.pending[s], *m)
		} else {
			t.miscarried.Add(1)
		}
	}
	t.mu.Unlock()
	clear(batch) // drop the task and blob references the copies now hold
	return batch[:0]
}

// handshake merges a peer's address table and answers once (hsSent
// makes this idempotent) before the sender's route exists, so our
// handshake leads every reply on this connection.
func (t *Trans) handshake(sc *sconn, m transport.Message) {
	t.mergeTable(m.Blob)
	t.sendHandshake(sc)
	if s, ok := t.slot(m.From); ok {
		t.mu.Lock()
		t.routes[s] = sc
		t.mu.Unlock()
	}
}

// LoadPeers reads a bootstrap file: one "id address" pair per line,
// '#' comments and blank lines ignored. Several ids may map to one
// address (a daemon hosting several processors).
func LoadPeers(path string) (map[int32]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("socktrans: peers file: %w", err)
	}
	m, err := ParsePeers(string(raw))
	if err != nil {
		return nil, fmt.Errorf("socktrans: peers file %s: %w", path, err)
	}
	return m, nil
}

// ParsePeers parses the "id address" line format of LoadPeers and the
// handshake table.
func ParsePeers(s string) (map[int32]string, error) {
	out := make(map[int32]string)
	for i, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want \"id address\", got %q", i+1, line)
		}
		id, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: id %q: %v", i+1, fields[0], err)
		}
		out[int32(id)] = fields[1]
	}
	return out, nil
}
