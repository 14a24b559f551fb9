package socktrans

import (
	"errors"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/wire"
)

// unixPair builds a two-endpoint UDS fleet like pair, with a queue deep
// enough that a burst is never dropped.
func unixPair(t *testing.T, queueLen int) (*Trans, *Trans) {
	t.Helper()
	dir := t.TempDir()
	a, err := New(Config{Network: "unix", Listen: filepath.Join(dir, "a.sock"), N: 2, Local: []int32{0},
		SuspectAfter: time.Second, QueueLen: queueLen, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := New(Config{Network: "unix", Listen: filepath.Join(dir, "b.sock"), N: 2, Local: []int32{1},
		Peers: map[int32]string{0: a.advertiseAddr()}, SuspectAfter: time.Second, QueueLen: queueLen, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

// TestBatchedSendsKeepPerSenderOrder sends from several goroutines at
// once, so frames from different senders share batches, and checks that
// every frame arrives whole and each sender's frames in order.
func TestBatchedSendsKeepPerSenderOrder(t *testing.T) {
	const senders, each = 8, 500
	a, b := unixPair(t, senders*each)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Send(transport.Message{From: 1, To: 0, Kind: transport.KindQuery, A: int32(g), B: int32(i),
					Blob: []byte(strings.Repeat("x", i%37))})
			}
		}(g)
	}
	wg.Wait()
	got := recv(t, a, 0, senders*each, 10*time.Second)
	next := make([]int32, senders)
	for _, m := range got {
		if m.Kind != transport.KindQuery || m.A < 0 || m.A >= senders || len(m.Blob) != int(m.B%37) {
			t.Fatalf("corrupt frame %+v", m)
		}
		if m.B != next[m.A] {
			t.Fatalf("sender %d: got seq %d, want %d", m.A, m.B, next[m.A])
		}
		next[m.A]++
	}
	if len(got) != senders*each {
		t.Fatalf("got %d frames, want %d", len(got), senders*each)
	}
	if d := b.Stats().Dropped; d != 0 {
		t.Fatalf("dropped %d frames", d)
	}
}

// cutConn fails its first write of more than min bytes halfway through,
// after handing the first half to the socket — a connection that dies
// mid-batch.
type cutConn struct {
	net.Conn
	min  int
	cuts *atomic.Int32
}

func (c cutConn) Write(p []byte) (int, error) {
	if len(p) > c.min && c.cuts.CompareAndSwap(0, 1) {
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, errors.New("cut mid-batch")
	}
	return c.Conn.Write(p)
}

// TestResumeAfterMidBatchFailure kills the first connection halfway
// through a multi-frame batch and checks that the writer re-dials and
// resumes at the first frame the kernel did not take: every frame
// arrives exactly once.
func TestResumeAfterMidBatchFailure(t *testing.T) {
	const frames = 400
	a, b := unixPair(t, frames)
	var cuts atomic.Int32
	hold := make(chan struct{})
	b.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		<-hold // let the whole burst queue up behind the first frame
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return cutConn{Conn: c, min: 1024, cuts: &cuts}, nil
	}
	for i := 0; i < frames; i++ {
		b.Send(transport.Message{From: 1, To: 0, Kind: transport.KindQuery, B: int32(i), Blob: []byte("payload")})
	}
	close(hold)
	got := recv(t, a, 0, frames, 10*time.Second)
	time.Sleep(50 * time.Millisecond) // room for a duplicate to show up
	a.Deliver()
	got = append(got, a.Inbox(0)...)
	if cuts.Load() != 1 {
		t.Fatalf("the connection was never cut mid-batch")
	}
	seen := make([]int, frames)
	for _, m := range got {
		seen[m.B]++
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("frame %d delivered %d times", i, c)
		}
	}
	if d := b.Stats().Dropped; d != 0 {
		t.Fatalf("dropped %d frames", d)
	}
}

// stalledClient dials srv as a client that sends one frame from id -1,
// which teaches srv a reply route, and then never reads.
func stalledClient(t *testing.T, srv *Trans) net.Conn {
	t.Helper()
	c, err := net.Dial("unix", srv.advertiseAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := wire.WriteFrame(c, transport.Message{From: -1, To: 0, Kind: transport.KindHeartbeat}); err != nil {
		t.Fatal(err)
	}
	recv(t, srv, 0, 1, 5*time.Second)
	return c
}

// TestStalledRouteDoesNotBlockSend: replies to a client that stopped
// reading pile up behind its route writer, not in the caller; once the
// queue is full they are dropped and counted.
func TestStalledRouteDoesNotBlockSend(t *testing.T) {
	srv, err := New(Config{Network: "unix", Listen: filepath.Join(t.TempDir(), "s.sock"), N: 1,
		Local: []int32{0}, SuspectAfter: 5 * time.Second, QueueLen: 16, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stalledClient(t, srv)
	const sends = 2000
	blob := make([]byte, 16<<10) // enough to fill the socket buffers many times over
	start := time.Now()
	for i := 0; i < sends; i++ {
		srv.Send(transport.Message{From: 0, To: -1, Kind: transport.KindProbe, B: 2, Blob: blob})
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("%d sends to a stalled client took %v: Send waited on the socket", sends, el)
	}
	st := srv.Stats()
	if st.Sent != sends || st.Dropped == 0 || st.Dropped >= sends {
		t.Fatalf("sent %d dropped %d: want every send counted and the overflow dropped", st.Sent, st.Dropped)
	}
}

// TestCloseWaitsForWriters: Close returns only after every writer
// goroutine is gone — a route writer blocked in a write to a client
// that stopped reading, and a peer writer backing off from an address
// nobody listens on.
func TestCloseWaitsForWriters(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	srv, err := New(Config{Network: "unix", Listen: filepath.Join(dir, "s.sock"), N: 2, Local: []int32{0},
		Peers: map[int32]string{1: filepath.Join(dir, "nobody.sock")}, SuspectAfter: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c := stalledClient(t, srv)
	blob := make([]byte, 64<<10)
	for i := 0; i < 64; i++ {
		srv.Send(transport.Message{From: 0, To: -1, Kind: transport.KindProbe, B: 2, Blob: blob})
		srv.Send(transport.Message{From: 0, To: 1, Kind: transport.KindHeartbeat})
	}
	time.Sleep(50 * time.Millisecond) // the route writer blocks, the peer writer backs off
	srv.Close()
	c.Close()
	// A goroutine that has run its deferred wg.Done is still counted
	// until it returns; give the scheduler a moment, not a deadline.
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// BenchmarkSocktransSend measures frames/s through a UDS loopback pair:
// Send on one endpoint until the other has received every frame.
func BenchmarkSocktransSend(b *testing.B) {
	dir := b.TempDir()
	a, err := New(Config{Network: "unix", Listen: filepath.Join(dir, "a.sock"), N: 2, Local: []int32{0},
		QueueLen: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	c, err := New(Config{Network: "unix", Listen: filepath.Join(dir, "c.sock"), N: 2, Local: []int32{1},
		Peers: map[int32]string{0: a.advertiseAddr()}, QueueLen: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	m := transport.Message{From: 1, To: 0, Kind: transport.KindHeartbeat}
	c.Send(m)
	for got := 0; got < 1; got += len(a.Inbox(0)) {
		a.Deliver()
	}
	b.ReportAllocs()
	b.ResetTimer()
	got := 0
	for i := 0; i < b.N; i++ {
		c.Send(m)
		if i%256 == 255 {
			a.Deliver()
			got += len(a.Inbox(0))
		}
	}
	for deadline := time.Now().Add(30 * time.Second); got < b.N; {
		if time.Now().After(deadline) {
			b.Fatalf("received %d of %d frames", got, b.N)
		}
		a.Deliver()
		got += len(a.Inbox(0))
	}
	b.StopTimer()
	if d := c.Stats().Dropped; d != 0 {
		b.Fatalf("dropped %d frames", d)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkSocktransReceive measures the receive side alone: a bare
// client writes pre-encoded frames 256 to a write over UDS, and each op
// is one frame through the endpoint's reader, Deliver and Inbox.
// allocs/op is the receive path's allocations per frame.
func BenchmarkSocktransReceive(b *testing.B) {
	for _, tc := range []struct {
		name string
		m    transport.Message
	}{
		{"heartbeat", transport.Message{From: -1, To: 0, Kind: transport.KindHeartbeat}},
		{"transfer", transport.Message{From: -1, To: 0, Kind: transport.KindTransfer, A: 1, B: 7,
			Tasks: []task.Task{{Origin: 0, Birth: -1, Weight: 1, Remaining: 1}}, Blob: []byte{1}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv, err := New(Config{Network: "unix", Listen: filepath.Join(b.TempDir(), "s.sock"), N: 1,
				Local: []int32{0}})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := net.Dial("unix", srv.advertiseAddr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			const chunk = 256
			var buf []byte
			for i := 0; i < chunk; i++ {
				if buf, err = appendFrame(buf, tc.m); err != nil {
					b.Fatal(err)
				}
			}
			size := len(buf) / chunk
			b.ReportAllocs()
			b.ResetTimer()
			got := 0
			for sent := 0; sent < b.N; sent += chunk {
				if _, err := c.Write(buf[:min(chunk, b.N-sent)*size]); err != nil {
					b.Fatal(err)
				}
				srv.Deliver()
				got += len(srv.Inbox(0))
			}
			for deadline := time.Now().Add(30 * time.Second); got < b.N; {
				if time.Now().After(deadline) {
					b.Fatalf("received %d of %d frames", got, b.N)
				}
				srv.Deliver()
				got += len(srv.Inbox(0))
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
