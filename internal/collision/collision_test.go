package collision

import (
	"fmt"
	"testing"
	"testing/quick"

	"plb/internal/xrand"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		n    int
		ok   bool
	}{
		{"lemma1", Lemma1Params(), 1024, true},
		{"tiny-n", Lemma1Params(), 1, false},
		{"a-too-small", Params{A: 1, B: 0, C: 1}, 100, false},
		{"b-zero", Params{A: 5, B: 0, C: 1}, 100, false},
		{"b-ge-a", Params{A: 3, B: 3, C: 1}, 100, false},
		{"c-zero", Params{A: 5, B: 2, C: 0}, 100, false},
		{"c-max", Params{A: 129, B: 2, C: 127}, 130, true},
		{"c-exceeds-int8", Params{A: 129, B: 2, C: 200}, 130, false}, // condition (1) holds, the int8 counters would wrap
		{"a-exceeds-n", Params{A: 5, B: 2, C: 1}, 5, false},
		{"cond1-violated", Params{A: 3, B: 2, C: 1}, 100, false}, // c^2(a-b)/(c+1) = 1/2
		{"cond1-c2", Params{A: 3, B: 2, C: 2}, 100, true},        // 4/3 > 1
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate(c.n)
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%+v, n=%d) = %v, want ok=%v", c.p, c.n, err, c.ok)
			}
		})
	}
}

func TestDefaultRounds(t *testing.T) {
	p := Lemma1Params()
	// log2 log2 (2^16) = 4; log2(1*3) ~= 1.585 => ceil(4/1.585)+3 = 6.
	if got := p.DefaultRounds(1 << 16); got != 6 {
		t.Fatalf("DefaultRounds(2^16) = %d, want 6", got)
	}
	if got := p.DefaultRounds(2); got < 4 {
		t.Fatalf("DefaultRounds(2) = %d, too small", got)
	}
	// Degenerate c(a-b)=1 must still terminate.
	deg := Params{A: 3, B: 2, C: 2}
	if got := deg.DefaultRounds(1 << 16); got <= 0 {
		t.Fatalf("degenerate DefaultRounds = %d", got)
	}
}

func TestStepsPerRound(t *testing.T) {
	if got := Lemma1Params().StepsPerRound(); got != 5 {
		t.Fatalf("StepsPerRound = %d, want 5 (a*c)", got)
	}
}

func TestRunPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with invalid params did not panic")
		}
	}()
	Run(4, nil, Params{A: 5, B: 2, C: 1}, xrand.New(1), 0)
}

func TestRunEmpty(t *testing.T) {
	res := Run(100, nil, Lemma1Params(), xrand.New(1), 0)
	if !res.AllSatisfied || res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("empty run result = %+v", res)
	}
}

func TestRunSingleRequest(t *testing.T) {
	r := xrand.New(2)
	res := Run(100, []int32{7}, Lemma1Params(), r, 0)
	if !res.AllSatisfied {
		t.Fatal("single request unsatisfied")
	}
	if len(res.Accepted[0]) < 2 {
		t.Fatalf("accepts = %d, want >= b=2", len(res.Accepted[0]))
	}
	for _, tgt := range res.Accepted[0] {
		if tgt == 7 {
			t.Fatal("request assigned to its own issuer")
		}
	}
	if res.Rounds != 1 {
		t.Fatalf("uncontended request took %d rounds", res.Rounds)
	}
}

func TestCollisionValueRespected(t *testing.T) {
	// Invariant 1 of the protocol: no processor answers more than c
	// queries — even under heavy contention.
	r := xrand.New(3)
	n := 64
	requesters := make([]int32, 32)
	for i := range requesters {
		requesters[i] = int32(i)
	}
	p := Lemma1Params()
	res := Run(n, requesters, p, r, 0)
	for proc, cnt := range res.AcceptCount {
		if int(cnt) > p.C {
			t.Fatalf("processor %d accepted %d > c=%d queries", proc, cnt, p.C)
		}
	}
	for i, acc := range res.Accepted {
		if res.Satisfied[i] && len(acc) < p.B {
			t.Fatalf("request %d satisfied with %d < b accepts", i, len(acc))
		}
	}
}

func TestAcceptedTargetsDistinct(t *testing.T) {
	r := xrand.New(5)
	requesters := []int32{0, 1, 2, 3}
	res := Run(256, requesters, Lemma1Params(), r, 0)
	for i, acc := range res.Accepted {
		seen := make(map[int32]bool)
		for _, tgt := range acc {
			if seen[tgt] {
				t.Fatalf("request %d accepted twice by %d", i, tgt)
			}
			seen[tgt] = true
		}
	}
}

func TestLemma1HighProbabilitySuccess(t *testing.T) {
	// Lemma 1: with beta*n/a requests (beta < 1), the protocol finds a
	// valid assignment after its round budget w.h.p.
	const n = 4096
	const trials = 50
	p := Lemma1Params()
	fails := 0
	root := xrand.New(11)
	nReq := n / (4 * p.A) // comfortably below the n*beta/a regime
	for trial := 0; trial < trials; trial++ {
		r := root.Split(uint64(trial))
		requesters := make([]int32, nReq)
		buf := make([]int, nReq)
		r.SampleDistinct(buf, nReq, n, -1)
		for i, v := range buf {
			requesters[i] = int32(v)
		}
		res := Run(n, requesters, p, r, 0)
		if !res.AllSatisfied {
			fails++
		}
	}
	if fails > 1 {
		t.Fatalf("protocol failed %d/%d trials at the Lemma-1 operating point", fails, trials)
	}
}

func TestContentionResolvedAcrossRounds(t *testing.T) {
	// With many requests on few processors some round-1 collisions are
	// guaranteed; the re-send mechanism must still satisfy most
	// requests within the budget.
	r := xrand.New(13)
	n := 32
	requesters := make([]int32, 8)
	for i := range requesters {
		requesters[i] = int32(i)
	}
	res := Run(n, requesters, Lemma1Params(), r, 20)
	satisfied := 0
	for _, s := range res.Satisfied {
		if s {
			satisfied++
		}
	}
	if satisfied < len(requesters)/2 {
		t.Fatalf("only %d/%d requests satisfied under contention", satisfied, len(requesters))
	}
}

func TestRoundBudgetHonored(t *testing.T) {
	r := xrand.New(17)
	// Saturate: more requests than capacity (n*c total accepts
	// available; each request needs b=2).
	n := 16
	requesters := make([]int32, 16)
	for i := range requesters {
		requesters[i] = int32(i)
	}
	res := Run(n, requesters, Lemma1Params(), r, 4)
	if res.Rounds > 4 {
		t.Fatalf("rounds %d exceeded budget 4", res.Rounds)
	}
	if res.AllSatisfied {
		t.Fatal("oversubscribed instance cannot satisfy everyone (capacity 16 accepts, need 32)")
	}
	if res.Steps != res.Rounds*5 {
		t.Fatalf("steps = %d, want rounds*5", res.Steps)
	}
}

func TestMessageAccounting(t *testing.T) {
	r := xrand.New(19)
	res := Run(1024, []int32{0}, Lemma1Params(), r, 0)
	// Round 1, no contention: 5 queries + >= 2 accepts... all 5 targets
	// accept (each saw 1 query <= c), so 5 accepts.
	if res.Messages != 10 {
		t.Fatalf("messages = %d, want 10 (5 queries + 5 accepts)", res.Messages)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Result {
		r := xrand.New(23)
		reqs := []int32{1, 5, 9, 13}
		return Run(64, reqs, Lemma1Params(), r, 0)
	}
	a, b := mk(), mk()
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatal("same-seed runs diverged")
	}
	for i := range a.Accepted {
		if len(a.Accepted[i]) != len(b.Accepted[i]) {
			t.Fatal("same-seed accept lists diverged")
		}
		for j := range a.Accepted[i] {
			if a.Accepted[i][j] != b.Accepted[i][j] {
				t.Fatal("same-seed accept targets diverged")
			}
		}
	}
}

func TestQuickInvariants(t *testing.T) {
	// Properties over random instances: accept counts never exceed c;
	// satisfied requests have >= b distinct accepts; rounds within
	// budget.
	p := Lemma1Params()
	f := func(seed uint64, nReqRaw uint8) bool {
		n := 128
		nReq := int(nReqRaw) % 24
		r := xrand.New(seed)
		requesters := make([]int32, nReq)
		if nReq > 0 {
			buf := make([]int, nReq)
			r.SampleDistinct(buf, nReq, n, -1)
			for i, v := range buf {
				requesters[i] = int32(v)
			}
		}
		budget := p.DefaultRounds(n)
		res := Run(n, requesters, p, r, 0)
		if res.Rounds > budget {
			return false
		}
		for _, cnt := range res.AcceptCount {
			if int(cnt) > p.C {
				return false
			}
		}
		for i := range requesters {
			if res.Satisfied[i] && len(res.Accepted[i]) < p.B {
				return false
			}
			if !res.Satisfied[i] && len(res.Accepted[i]) >= p.B {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHigherCollisionValue(t *testing.T) {
	// c=2 allows two assignments per processor.
	p := Params{A: 4, B: 2, C: 2}
	if err := p.Validate(64); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(29)
	requesters := make([]int32, 16)
	for i := range requesters {
		requesters[i] = int32(i + 32)
	}
	res := Run(64, requesters, p, r, 0)
	for proc, cnt := range res.AcceptCount {
		if int(cnt) > 2 {
			t.Fatalf("processor %d accepted %d > c=2", proc, cnt)
		}
	}
}

func TestMaxCollisionValue(t *testing.T) {
	// c = 127 is the largest value the int8 accept counters hold: 127
	// requesters each query every other processor of 130, so a
	// non-requester receives exactly 127 queries and must accept them
	// all without its counter wrapping.
	const n = 130
	p := Params{A: n - 1, B: 2, C: 127}
	requesters := make([]int32, 127)
	for i := range requesters {
		requesters[i] = int32(i)
	}
	res := Run(n, requesters, p, xrand.New(31), 0)
	if !res.AllSatisfied || res.Rounds != 1 {
		t.Fatalf("uncontended c=127 game: satisfied=%v rounds=%d", res.AllSatisfied, res.Rounds)
	}
	for proc := 127; proc < n; proc++ {
		if res.AcceptCount[proc] != 127 {
			t.Fatalf("processor %d accepted %d, want 127", proc, res.AcceptCount[proc])
		}
	}
}

// sampleRequesters draws nReq distinct requester ids out of n from r.
func sampleRequesters(r *xrand.Stream, nReq, n int) []int32 {
	buf := make([]int, nReq)
	r.SampleDistinct(buf, nReq, n, -1)
	reqs := make([]int32, nReq)
	for i, v := range buf {
		reqs[i] = int32(v)
	}
	return reqs
}

// resultsEqual compares two Results field by field (deep on slices).
func resultsEqual(t *testing.T, tag string, a, b Result) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Steps != b.Steps || a.Messages != b.Messages || a.AllSatisfied != b.AllSatisfied {
		t.Fatalf("%s: scalar fields diverged: %+v vs %+v", tag,
			[4]int64{int64(a.Rounds), int64(a.Steps), a.Messages, boolToI64(a.AllSatisfied)},
			[4]int64{int64(b.Rounds), int64(b.Steps), b.Messages, boolToI64(b.AllSatisfied)})
	}
	if len(a.Accepted) != len(b.Accepted) {
		t.Fatalf("%s: request counts diverged", tag)
	}
	for i := range a.Accepted {
		if a.Satisfied[i] != b.Satisfied[i] {
			t.Fatalf("%s: request %d satisfied diverged", tag, i)
		}
		if len(a.Accepted[i]) != len(b.Accepted[i]) {
			t.Fatalf("%s: request %d accept counts diverged: %v vs %v", tag, i, a.Accepted[i], b.Accepted[i])
		}
		for j := range a.Accepted[i] {
			if a.Accepted[i][j] != b.Accepted[i][j] {
				t.Fatalf("%s: request %d accept lists diverged: %v vs %v", tag, i, a.Accepted[i], b.Accepted[i])
			}
		}
	}
	for p := range a.AcceptCount {
		if a.AcceptCount[p] != b.AcceptCount[p] {
			t.Fatalf("%s: AcceptCount[%d] diverged: %d vs %d", tag, p, a.AcceptCount[p], b.AcceptCount[p])
		}
	}
}

func boolToI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cloneResult deep-copies a Result so a Scratch-backed view survives
// the Scratch's next Run.
func cloneResult(res Result) Result {
	out := res
	out.Accepted = make([][]int32, len(res.Accepted))
	for i, acc := range res.Accepted {
		out.Accepted[i] = append([]int32(nil), acc...)
	}
	out.Satisfied = append([]bool(nil), res.Satisfied...)
	out.AcceptCount = append([]int8(nil), res.AcceptCount...)
	return out
}

func TestScratchMatchesRun(t *testing.T) {
	// A reused Scratch must reproduce the package-level Run bit for
	// bit, from small games to contended multi-round ones.
	p := Lemma1Params()
	cases := []struct {
		n, nReq int
		seed    uint64
	}{
		{64, 8, 1},
		{1024, 64, 2},
		{4096, 700, 3},
		{8192, 1200, 4}, // heavier contention, multiple rounds
	}
	for _, c := range cases {
		ref := Run(c.n, sampleRequesters(xrand.New(c.seed), c.nReq, c.n), p, xrand.New(^c.seed), 0)
		var s Scratch
		// Run twice on the same Scratch: the second pass exercises
		// the buffer-reuse (dirty-clearing) path.
		for pass := 0; pass < 2; pass++ {
			reqs := sampleRequesters(xrand.New(c.seed), c.nReq, c.n)
			got := s.Run(c.n, reqs, p, xrand.New(^c.seed), 0)
			resultsEqual(t, fmt.Sprintf("n=%d nReq=%d pass=%d", c.n, c.nReq, pass), ref, got)
		}
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	// A Scratch must stay correct when reused across different n and
	// request counts, including shrinking (stale acceptCnt entries from
	// a larger previous run must not leak in).
	p := Lemma1Params()
	var s Scratch
	sizes := []struct {
		n, nReq int
	}{{4096, 600}, {64, 8}, {1024, 200}, {64, 8}, {8192, 900}}
	for pass, c := range sizes {
		seed := uint64(pass + 1)
		reqs := sampleRequesters(xrand.New(seed), c.nReq, c.n)
		ref := Run(c.n, sampleRequesters(xrand.New(seed), c.nReq, c.n), p, xrand.New(^seed), 0)
		got := s.Run(c.n, reqs, p, xrand.New(^seed), 0)
		resultsEqual(t, fmt.Sprintf("pass=%d n=%d nReq=%d", pass, c.n, c.nReq), ref, got)
	}
}

func TestScratchZeroAllocSteadyState(t *testing.T) {
	// The zero-alloc claim: after a warm-up Run, repeated Runs at the
	// same size allocate nothing, up to frontier n.
	p := Lemma1Params()
	for _, c := range []struct {
		name    string
		n, nReq int
	}{
		{"inline", 1024, 100},
		{"n=2^22", 1 << 22, 4096},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s Scratch
			reqs := sampleRequesters(xrand.New(7), c.nReq, c.n)
			r0 := *xrand.New(99) // value copy: reset the stream without allocating
			r := r0
			s.Run(c.n, reqs, p, &r, 0) // warm up
			allocs := testing.AllocsPerRun(10, func() {
				r = r0
				s.Run(c.n, reqs, p, &r, 0)
			})
			if allocs != 0 {
				t.Fatalf("steady-state Scratch.Run allocated %.1f times per run", allocs)
			}
		})
	}
}

func BenchmarkRunLemma1(b *testing.B) {
	n := 4096
	p := Lemma1Params()
	requesters := make([]int32, n/64)
	for i := range requesters {
		requesters[i] = int32(i * 64 % n)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := xrand.New(uint64(i))
		Run(n, requesters, p, r, 0)
	}
}

// BenchmarkCollisionRun measures the Scratch kernel with a Lemma-1
// request load (n/(4a) requesters, the operating point the balancer
// actually produces), up to n=2^22. allocs/op must be 0 in steady
// state — run with -benchmem.
func BenchmarkCollisionRun(b *testing.B) {
	p := Lemma1Params()
	for _, n := range []int{1 << 10, 1 << 16, 1 << 18, 1 << 22} {
		nReq := n / (4 * p.A)
		reqs := sampleRequesters(xrand.New(31), nReq, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var s Scratch
			r0 := *xrand.New(63)
			r := r0
			s.Run(n, reqs, p, &r, 0) // warm up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r = r0
				s.Run(n, reqs, p, &r, 0)
			}
		})
	}
}
