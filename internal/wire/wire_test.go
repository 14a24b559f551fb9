package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/xrand"
)

// allKinds enumerates the full vocabulary the codec must carry.
func allKinds() []transport.Kind {
	var ks []transport.Kind
	for k := transport.KindQuery; k < transport.KindMax; k++ {
		ks = append(ks, k)
	}
	return ks
}

func TestVocabularyCovered(t *testing.T) {
	if got := len(allKinds()); got != 11 {
		t.Fatalf("vocabulary has %d kinds, the protocol defines 11", got)
	}
}

// TestRoundTripEveryKind is the codec's core property: for every kind
// and a spread of field values (extremes included), decode(encode(m))
// must reproduce m exactly.
func TestRoundTripEveryKind(t *testing.T) {
	rng := xrand.New(7)
	values := []int32{0, 1, -1, 42, math.MaxInt32, math.MinInt32}
	for _, k := range allKinds() {
		for trial := 0; trial < 64; trial++ {
			m := transport.Message{
				From: values[rng.Intn(len(values))],
				To:   values[rng.Intn(len(values))],
				Kind: k,
				A:    values[rng.Intn(len(values))],
				B:    values[rng.Intn(len(values))],
			}
			if k == transport.KindTransfer && trial%2 == 0 {
				m.Tasks = randTasks(rng, 1+rng.Intn(8))
			}
			if trial%3 == 0 {
				m.Blob = []byte("status:" + strings.Repeat("x", rng.Intn(32)))
			}
			body, err := AppendMessage(nil, m)
			if err != nil {
				t.Fatalf("%s: encode: %v", k, err)
			}
			got, err := DecodeMessage(body)
			if err != nil {
				t.Fatalf("%s: decode: %v", k, err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("%s: round trip\n got %+v\nwant %+v", k, got, m)
			}
		}
	}
}

func randTasks(rng *xrand.Stream, n int) []task.Task {
	ts := make([]task.Task, n)
	for i := range ts {
		ts[i] = task.Task{
			Origin:    int32(rng.Intn(1 << 20)),
			Hops:      int32(rng.Intn(64)),
			Birth:     int64(rng.Intn(1 << 30)),
			Weight:    int32(1 + rng.Intn(16)),
			Remaining: int32(1 + rng.Intn(16)),
		}
	}
	// Exercise the sentinel values the load generator ships.
	ts[0].Origin = -1
	ts[0].Birth = -1
	return ts
}

// TestFraming runs messages through the stream layer: several frames
// back to back decode in order, and a truncated tail is an error, not
// a panic or a short read misread as success.
func TestFraming(t *testing.T) {
	msgs := []transport.Message{
		{From: 0, To: 1, Kind: transport.KindQuery, A: 3},
		{From: 1, To: 0, Kind: transport.KindTransfer, A: 2, B: 9,
			Tasks: []task.Task{{Origin: 4, Weight: 1, Remaining: 1}, {Origin: 5, Weight: 2, Remaining: 2}}},
		{From: 2, To: -1, Kind: transport.KindJoin, Blob: []byte("0 /tmp/a.sock\n1 /tmp/b.sock\n")},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := writeFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// Truncated stream: half a frame.
	var half bytes.Buffer
	if err := writeFrame(&half, msgs[0]); err != nil {
		t.Fatal(err)
	}
	trunc := half.Bytes()[:half.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc), 0); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

// writeFrame writes m as one length-prefixed frame, the framing
// ReadFrame expects.
func writeFrame(w io.Writer, m transport.Message) error {
	body, err := AppendMessage(make([]byte, 4, 64), m)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(body[:4], uint32(len(body)-4))
	_, err = w.Write(body)
	return err
}

// TestFrameLimit: a length prefix beyond the reader's bound fails
// before allocating the body.
func TestFrameLimit(t *testing.T) {
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(big), 1024); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized frame: %v", err)
	}
}

// TestStrictDecode pins the decoder's rejection surface; every message
// should name the kind in words (Kind.String()), not a raw number.
func TestStrictDecode(t *testing.T) {
	good, err := AppendMessage(nil, transport.Message{From: 1, To: 2, Kind: transport.KindAccept, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantSub string
	}{
		{"short body", func(b []byte) []byte { return b[:8] }, "header"},
		{"bad magic", func(b []byte) []byte { b[0] = 0x00; return b }, "magic"},
		{"bad version", func(b []byte) []byte { b[1] = 99; return b }, "version"},
		{"zero kind", func(b []byte) []byte { b[2] = 0; return b }, "vocabulary"},
		{"wild kind", func(b []byte) []byte { b[2] = 200; return b }, "vocabulary"},
		{"unknown flags", func(b []byte) []byte { b[3] |= 0x80; return b }, "flag"},
		{"tasks on accept", func(b []byte) []byte { b[3] |= flagTasks; return append(b, 1, 2, 0, 2, 2, 2) }, "accept"},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xEE) }, "trailing"},
	}
	for _, c := range cases {
		body := c.mangle(append([]byte(nil), good...))
		_, err := DecodeMessage(body)
		if err == nil {
			t.Errorf("%s: decoded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
}

// TestEncodeRejectsMisplacedTasks: the encoder is as strict as the
// decoder about the tasks-only-on-transfers rule.
func TestEncodeRejectsMisplacedTasks(t *testing.T) {
	_, err := AppendMessage(nil, transport.Message{
		Kind: transport.KindQuery, Tasks: []task.Task{{Weight: 1, Remaining: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "query") {
		t.Fatalf("tasks on query: %v", err)
	}
	if _, err := AppendMessage(nil, transport.Message{Kind: transport.KindMax}); err == nil {
		t.Fatal("out-of-vocabulary kind encoded")
	}
}
