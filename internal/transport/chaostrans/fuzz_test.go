package chaostrans

import (
	"testing"

	"plb/internal/faults"
	"plb/internal/transport"
)

// FuzzChaosFrame holds the middleware to its two invariants under
// arbitrary plans and frames: it never panics, and its counters stay
// consistent — every frame sent at the protocol boundary is either
// forwarded to the inner transport (plus its duplicates), dropped, or
// still held awaiting a delay release.
func FuzzChaosFrame(f *testing.F) {
	f.Add("lossy:0.3,dup:0.2,delay:0.4@3", int64(1), uint8(7), int32(0), int32(1), int32(5))
	f.Add("partition:2@8,lossy:0.1", int64(9), uint8(5), int32(3), int32(-1), int32(0))
	f.Add("straggle:0.5@4,dup:1.0", int64(2), uint8(1), int32(-1), int32(2), int32(99))
	f.Add("", int64(0), uint8(0), int32(1<<30), int32(-1<<30), int32(-1))
	f.Fuzz(func(t *testing.T, spec string, seed int64, kind uint8, from, to, b int32) {
		plan, err := faults.ParsePlan(spec)
		if err != nil {
			t.Skip()
		}
		inner := newLoop(8)
		tr, err := Wrap(inner, plan, uint64(seed), 0)
		if err != nil {
			// Process-level or rejected plan features: declining is the
			// contract, crashing is not.
			return
		}
		m := transport.Message{From: from, To: to, Kind: transport.Kind(kind), B: b}
		for i := 0; i < 3; i++ {
			tr.Send(m)
			tr.Deliver()
			tr.Inbox(int(to))
		}
		for i := 0; i < 8; i++ { // generous flush for any delay fate
			tr.Deliver()
		}
		c := tr.Counters()
		if c.Sent != 3 {
			t.Fatalf("sent counter %d, want 3", c.Sent)
		}
		if c.Dropped < 0 || c.Dropped > 3 || c.Duplicated < 0 || c.Duplicated > 3 || c.Held < 0 {
			t.Fatalf("counters out of range: %+v", c)
		}
		if got, want := inner.Received(), c.Sent-c.Dropped+c.Duplicated-c.Held; got != want {
			t.Fatalf("inner received %d, want sent-dropped+dup-held = %d (%+v)", got, want, c)
		}
		s := tr.Stats()
		if s.Sent != c.Sent || s.Dropped != c.Dropped || s.Duplicated != c.Duplicated || s.Delayed != c.Delayed {
			t.Fatalf("Stats %+v inconsistent with Counters %+v", s, c)
		}
	})
}
