package wire

import (
	"fmt"
	"strings"
	"testing"

	"plb/internal/task"
	"plb/internal/transport"
)

// codecSamples is one representative frame per kind, shaped like the
// socket fleet's traffic: a generator block of one task with its epoch
// byte, a status reply with a document-sized blob, and bare control
// frames for the rest.
func codecSamples() []transport.Message {
	return []transport.Message{
		{From: 3, To: 9, Kind: transport.KindQuery, A: 12},
		{From: 3, To: 9, Kind: transport.KindAccept, A: 4, B: 1},
		{From: 3, To: 9, Kind: transport.KindID, A: 2},
		{From: 3, To: 9, Kind: transport.KindForward, A: 4},
		{From: -1, To: 9, Kind: transport.KindTransfer, A: 1, B: 40961,
			Tasks: []task.Task{{Origin: 9, Birth: -1, Weight: 1, Remaining: 1}}, Blob: []byte{1}},
		{From: 9, To: -1, Kind: transport.KindProbe, A: 3, B: 2, Blob: []byte(`{"id":9,"now":15000,` + strings.Repeat(`"x":0,`, 80) + `}`)},
		{From: 3, To: 9, Kind: transport.KindHeartbeat},
		{From: 9, To: -1, Kind: transport.KindTransferAck, B: 40961},
		{From: 3, To: 9, Kind: transport.KindJoin},
		{From: 3, To: 9, Kind: transport.KindDrain, A: 2},
		{From: 3, To: 9, Kind: transport.KindLeave, A: 2},
	}
}

// BenchmarkWireCodec times encoding and decoding one frame body of each
// kind, reporting the frame's size on the wire (length prefix
// included). Encoding appends into a reused buffer; decoding allocates
// only the task block and the blob it copies out.
func BenchmarkWireCodec(b *testing.B) {
	for _, m := range codecSamples() {
		body, err := AppendMessage(nil, m)
		if err != nil {
			b.Fatal(err)
		}
		frame := float64(4 + len(body))
		b.Run(fmt.Sprintf("%s/encode", m.Kind), func(b *testing.B) {
			buf := make([]byte, 0, len(body))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = AppendMessage(buf[:0], m)
			}
			b.ReportMetric(frame, "B/frame")
		})
		b.Run(fmt.Sprintf("%s/decode", m.Kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeMessage(body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(frame, "B/frame")
		})
	}
}
