package collision

import (
	"testing"

	"plb/internal/xrand"
)

// FuzzRunInvariants checks the protocol's two defining guarantees on
// arbitrary inputs: no processor ever accepts more than c queries, and
// a request is satisfied exactly when it holds >= b accepts from
// distinct processors.
func FuzzRunInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(16), uint8(1))
	f.Add(uint64(42), uint8(40), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nReqRaw, variant uint8) {
		n := 256
		params := []Params{
			{A: 5, B: 2, C: 1},
			{A: 4, B: 1, C: 1},
			{A: 4, B: 2, C: 2},
		}
		p := params[int(variant)%len(params)]
		nReq := int(nReqRaw) % (n / p.A)
		r := xrand.New(seed)
		requesters := make([]int32, nReq)
		if nReq > 0 {
			buf := make([]int, nReq)
			r.SampleDistinct(buf, nReq, n, -1)
			for i, v := range buf {
				requesters[i] = int32(v)
			}
		}
		res := Run(n, requesters, p, r, 0)
		for proc, cnt := range res.AcceptCount {
			if cnt < 0 || int(cnt) > p.C {
				t.Fatalf("processor %d accepted %d, want 0..c=%d", proc, cnt, p.C)
			}
		}
		for i := range requesters {
			acc := res.Accepted[i]
			if res.Satisfied[i] != (len(acc) >= p.B) {
				t.Fatalf("request %d: satisfied=%v but %d accepts", i, res.Satisfied[i], len(acc))
			}
			seen := map[int32]bool{}
			for _, tgt := range acc {
				if seen[tgt] {
					t.Fatalf("request %d accepted twice by %d", i, tgt)
				}
				seen[tgt] = true
				if tgt == requesters[i] {
					t.Fatalf("request %d assigned to its own issuer", i)
				}
			}
		}
		if res.Rounds > p.DefaultRounds(n) {
			t.Fatalf("rounds %d exceeded budget", res.Rounds)
		}
	})
}
