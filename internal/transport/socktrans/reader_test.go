package socktrans

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/wire"
)

// rawClient dials srv's listener as a bare connection that speaks the
// frame format but never handshakes — the shape of a client whose
// frames teach srv reply routes.
func rawClient(t *testing.T, srv *Trans) net.Conn {
	t.Helper()
	c, err := net.Dial("unix", srv.advertiseAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// writeFrames encodes ms back to back and hands them to c in one write.
func writeFrames(t *testing.T, c net.Conn, ms ...transport.Message) {
	t.Helper()
	var buf []byte
	for _, m := range ms {
		var err error
		if buf, err = appendFrame(buf, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// readKind reads frames from c until one of kind k arrives.
func readKind(t *testing.T, c net.Conn, k transport.Kind) transport.Message {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		m, err := wire.ReadFrame(c, 0)
		if err != nil {
			t.Fatalf("reading for a %s frame: %v", k, err)
		}
		if m.Kind == k {
			return m
		}
	}
}

// TestOversizedFramesTakeFallbackPath mixes frames larger than the
// reader's buffer (a 1000-task transfer, an 8 KiB status blob, blobs
// one byte either side of the buffer size) with small ones, and checks
// every frame arrives intact and in order whichever decode path it
// took.
func TestOversizedFramesTakeFallbackPath(t *testing.T) {
	a, b := unixPair(t, 64)
	tasks := make([]task.Task, 1000)
	for i := range tasks {
		tasks[i] = task.Task{Origin: 1, Hops: int32(i % 3), Birth: int64(1e6 + i), Weight: int32(1 + i%7), Remaining: 1}
	}
	// A blob of L bytes makes a frame of 26+L bytes (length prefix,
	// header, two-byte blob length): 4070 fills the 4096-byte buffer
	// exactly, 4071 overflows it by one.
	blob := func(n int) []byte { return []byte(strings.Repeat("s", n)) }
	want := []transport.Message{
		{From: 1, To: 0, Kind: transport.KindHeartbeat},
		{From: 1, To: 0, Kind: transport.KindTransfer, A: 1000, B: 3, Tasks: tasks, Blob: []byte{1}},
		{From: 1, To: 0, Kind: transport.KindQuery, A: 7},
		{From: 1, To: 0, Kind: transport.KindProbe, B: 2, Blob: blob(8 << 10)},
		{From: 1, To: 0, Kind: transport.KindProbe, B: 2, Blob: blob(4070)},
		{From: 1, To: 0, Kind: transport.KindProbe, B: 2, Blob: blob(4071)},
		{From: 1, To: 0, Kind: transport.KindTransferAck, B: 3},
	}
	if n := len(mustFrame(t, want[4])); n != 4096 {
		t.Fatalf("boundary frame is %d bytes, want the 4096-byte reader buffer", n)
	}
	for _, m := range want {
		b.Send(m)
	}
	got := recv(t, a, 0, len(want), 5*time.Second)
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("frame %d (%s): got %s", i, want[i].Kind, summarize(got[i]))
		}
	}
}

func mustFrame(t *testing.T, m transport.Message) []byte {
	t.Helper()
	f, err := appendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func summarize(m transport.Message) string {
	return fmt.Sprintf("%s with %d tasks, %d-byte blob", m.Kind, len(m.Tasks), len(m.Blob))
}

// TestIDsOutsideRange: a frame To an id outside [-1, N) is counted as
// miscarried (GoneLost) without disturbing anything, and a frame From
// such an id is delivered but teaches no reply route.
func TestIDsOutsideRange(t *testing.T) {
	srv, err := New(Config{Network: "unix", Listen: filepath.Join(t.TempDir(), "s.sock"), N: 2,
		Local: []int32{0}, SuspectAfter: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := rawClient(t, srv)
	writeFrames(t, c,
		transport.Message{From: -1, To: 2, Kind: transport.KindHeartbeat},
		transport.Message{From: -1, To: -2, Kind: transport.KindHeartbeat},
		transport.Message{From: -1, To: 1 << 30, Kind: transport.KindHeartbeat},
		transport.Message{From: 9, To: 0, Kind: transport.KindQuery, A: 9},
		transport.Message{From: -7, To: 0, Kind: transport.KindQuery, A: -7},
	)
	got := recv(t, srv, 0, 2, 5*time.Second)
	if got[0].From != 9 || got[1].From != -7 {
		t.Fatalf("frames from out-of-range senders: %+v", got)
	}
	if lost := srv.Stats().GoneLost; lost != 3 {
		t.Fatalf("GoneLost = %d, want the 3 frames addressed outside [-1, 2)", lost)
	}
	for _, id := range []int32{9, -7} {
		srv.Send(transport.Message{From: 0, To: id, Kind: transport.KindID})
	}
	if d := srv.Stats().Dropped; d != 2 {
		t.Fatalf("replies to out-of-range senders: dropped %d, want 2 (no route learned)", d)
	}
	if _, err := New(Config{Network: "unix", N: 2, Local: []int32{2}}); err == nil {
		t.Fatal("a local id outside [-1, N) was accepted")
	}
}

// waitPending polls until want frames for id 0 are buffered behind
// tr's readable window, without opening a new one.
func waitPending(t *testing.T, tr *Trans, want int) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		tr.mu.Lock()
		got := len(tr.pending[1])
		tr.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("%d of %d frames buffered", got, want)
		}
	}
}

// TestInboxStableUntilDeliver: the window Inbox returns must not change
// while readers buffer the next arrivals — the contract the per-id
// slice swap in Deliver rests on.
func TestInboxStableUntilDeliver(t *testing.T) {
	a, b := unixPair(t, 1024)
	const first, second = 50, 300
	for i := 0; i < first; i++ {
		b.Send(transport.Message{From: 1, To: 0, Kind: transport.KindQuery, B: int32(i)})
	}
	waitPending(t, a, first)
	a.Deliver()
	win := a.Inbox(0)
	snap := append([]transport.Message(nil), win...)
	for i := 0; i < second; i++ {
		b.Send(transport.Message{From: 1, To: 0, Kind: transport.KindHeartbeat, B: int32(first + i)})
	}
	waitPending(t, a, second)
	if len(win) != first || !reflect.DeepEqual(win, snap) {
		t.Fatal("the readable window changed while the reader buffered the next arrivals")
	}
	a.Deliver()
	next := a.Inbox(0)
	if len(next) != second || next[0].B != first || next[second-1].B != first+second-1 {
		t.Fatalf("next window holds %d frames, want %d in order", len(next), second)
	}
}

// TestRouteRepointsToNewConnection: when a client id reconnects, the
// reply route follows its newest connection.
func TestRouteRepointsToNewConnection(t *testing.T) {
	srv, err := New(Config{Network: "unix", Listen: filepath.Join(t.TempDir(), "s.sock"), N: 2,
		Local: []int32{0}, SuspectAfter: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	old, fresh := rawClient(t, srv), rawClient(t, srv)
	writeFrames(t, old, transport.Message{From: -1, To: 0, Kind: transport.KindHeartbeat})
	recv(t, srv, 0, 1, 5*time.Second)
	srv.Send(transport.Message{From: 0, To: -1, Kind: transport.KindProbe, B: 2, A: 1})
	if m := readKind(t, old, transport.KindProbe); m.A != 1 {
		t.Fatalf("first reply = %+v", m)
	}
	writeFrames(t, fresh, transport.Message{From: -1, To: 0, Kind: transport.KindHeartbeat})
	recv(t, srv, 0, 1, 5*time.Second)
	srv.Send(transport.Message{From: 0, To: -1, Kind: transport.KindProbe, B: 2, A: 2})
	if m := readKind(t, fresh, transport.KindProbe); m.A != 2 {
		t.Fatalf("reply on the new connection = %+v", m)
	}
	old.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := wire.ReadFrame(old, 0); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the old connection still got traffic (err %v)", err)
	}
}

// TestOneWriteOneWindow: frames that arrive in one write are decoded as
// one buffered run and enqueued under one lock, so they surface in a
// single window, in order.
func TestOneWriteOneWindow(t *testing.T) {
	srv, err := New(Config{Network: "unix", Listen: filepath.Join(t.TempDir(), "s.sock"), N: 2,
		Local: []int32{0, 1}, SuspectAfter: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := rawClient(t, srv)
	const frames = 100
	ms := make([]transport.Message, frames)
	for i := range ms {
		ms[i] = transport.Message{From: -1, To: int32(i % 2), Kind: transport.KindHeartbeat, B: int32(i)}
	}
	writeFrames(t, c, ms...)
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		srv.Deliver()
		in0, in1 := srv.Inbox(0), srv.Inbox(1)
		if len(in0)+len(in1) == 0 {
			continue
		}
		if len(in0) != frames/2 || len(in1) != frames/2 {
			t.Fatalf("first window split the write: %d + %d frames of %d", len(in0), len(in1), frames)
		}
		for i := range in0 {
			if in0[i].B != int32(2*i) || in1[i].B != int32(2*i+1) {
				t.Fatalf("frame %d out of order: %d, %d", i, in0[i].B, in1[i].B)
			}
		}
		return
	}
	t.Fatal("no frame arrived")
}
