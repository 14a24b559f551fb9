// Package collision implements the (n, beta, a, b, c)-collision
// protocol of Section 2 of the paper (originally from Meyer auf der
// Heide, Scheideler and Stemann's shared-memory simulations, MSS95),
// adapted to assign load-balancing requests to processors.
//
// Setup: out of n processors, some set issues requests. Every request
// selects a target processors independently and uniformly at random
// and sends each a query. The protocol finds an assignment such that
//
//  1. no processor answers more than c queries (c is the collision
//     value), and
//  2. at least b < a of each request's queries are accepted.
//
// Per round: a processor whose total accepted-plus-arriving query
// count is at most c accepts all arriving queries and sends accept
// messages; a processor receiving more than it can take answers none
// of them (the collision effect). A requester with at least b
// cumulative accepts cancels its remaining queries and leaves the
// game; the others re-send their unanswered queries to the same
// targets (no new random choices are made).
//
// Lemma 1 instantiates a=5, b=2, c=1: within 5 log log n steps each
// request has two accepted queries and no processor is assigned more
// than one, w.h.p.
//
// One sequential kernel plays every round: within a round, a
// processor's accept decision is a pure function of its cumulative
// accept count and this round's arrival count, both held in n-sized
// arrays (5 B per processor), so the order in which queries are
// evaluated cannot change the outcome. Scratch makes repeated
// executions allocation-free in steady state.
package collision

import (
	"fmt"
	"math"

	"plb/internal/xrand"
)

// Params are the protocol's tuning constants.
type Params struct {
	// A is the number of random target processors per request (the
	// paper requires 2 <= a <= sqrt(log n)).
	A int
	// B is the number of accepted queries a request needs (b < a).
	B int
	// C is the collision value: the maximum number of queries any
	// processor answers. At most 127: the kernel keeps each
	// processor's accept count in an int8.
	C int
}

// Lemma1Params returns the instantiation used throughout the paper's
// balancing algorithm: a=5, b=2, c=1.
func Lemma1Params() Params { return Params{A: 5, B: 2, C: 1} }

// Validate checks structural parameter sanity and the paper's
// condition (1): c^2(a-b)/(c+1) > 1 + delta for some delta > 0.
// (The paper's condition (2) is typographically garbled in the
// available text; we enforce the structural requirements plus
// condition (1), which is what drives the doubly-logarithmic round
// bound.)
func (p Params) Validate(n int) error {
	if n < 2 {
		return fmt.Errorf("collision: need n >= 2, got %d", n)
	}
	if p.A < 2 {
		return fmt.Errorf("collision: need a >= 2, got a=%d", p.A)
	}
	if p.B < 1 || p.B >= p.A {
		return fmt.Errorf("collision: need 1 <= b < a, got a=%d b=%d", p.A, p.B)
	}
	if p.C < 1 || p.C > math.MaxInt8 {
		return fmt.Errorf("collision: need 1 <= c <= %d, got c=%d", math.MaxInt8, p.C)
	}
	if p.A > n-1 {
		return fmt.Errorf("collision: a=%d exceeds available targets (n=%d)", p.A, n)
	}
	// Condition (1): c^2 (a-b) / (c+1) > 1.
	lhs := float64(p.C*p.C*(p.A-p.B)) / float64(p.C+1)
	if lhs <= 1 {
		return fmt.Errorf("collision: condition (1) violated: c^2(a-b)/(c+1) = %.3f <= 1", lhs)
	}
	return nil
}

// DefaultRounds returns the paper's round budget
// log(log n) / log(c(a-b)) + 3 (base-2 logs, denominator floored at
// log 2 so degenerate parameter sets still terminate).
func (p Params) DefaultRounds(n int) int {
	loglog := math.Log2(math.Log2(float64(max(n, 4))))
	if loglog < 1 {
		loglog = 1
	}
	den := math.Log2(float64(p.C * (p.A - p.B)))
	if den < 1 {
		den = 1
	}
	return int(math.Ceil(loglog/den)) + 3
}

// StepsPerRound returns the machine steps one protocol round costs:
// the a queries are checked sequentially and each costs c wait steps.
func (p Params) StepsPerRound() int { return p.A * p.C }

// Result reports the outcome of a protocol execution.
//
// When produced by Scratch.Run, every slice views the Scratch's
// reusable memory and is valid only until that Scratch's next Run.
type Result struct {
	// Accepted[i] lists the processors that accepted queries of
	// request i, in acceptance order (length >= b iff Satisfied[i]).
	Accepted [][]int32
	// Satisfied[i] reports whether request i obtained >= b accepts.
	Satisfied []bool
	// Rounds is the number of protocol rounds executed.
	Rounds int
	// Steps is the number of machine steps consumed
	// (Rounds * StepsPerRound).
	Steps int
	// Messages counts queries and accept messages sent.
	Messages int64
	// AllSatisfied reports whether every request was satisfied.
	AllSatisfied bool
	// AcceptCount[p] is the number of queries processor p accepted;
	// the protocol guarantees 0 <= AcceptCount[p] <= c.
	AcceptCount []int8
}

// Scratch holds the collision kernel's reusable working memory: the
// fixed random choices, per-choice accept flags, the Result backing
// arrays and the per-processor arrival/accept counters. The zero value
// is ready to use; after the first Run at a given size, subsequent
// Runs at the same (or smaller) size perform no heap allocations.
type Scratch struct {
	// Per-request state, a = Params.A entries per request, flat.
	choices   []int32   // choices[i*a+j]: j-th target of request i
	accepted  []bool    // accepted[i*a+j]: target accepted already
	accBack   []int32   // backing array for Result.Accepted
	accHdr    [][]int32 // Result.Accepted headers into accBack
	satisfied []bool
	active    []int // indices of still-unsatisfied requests
	sample    []int // SampleDistinct output buffer

	// Per-processor state, n entries each.
	acceptCnt []int8  // cumulative accepts (Result.AcceptCount)
	arrivals  []int32 // queries delivered this round
	touched   []int32 // arrivals entries to reset after the round
	dirty     []int32 // acceptCnt entries dirtied, cleared on next Run
}

// Run executes the protocol among n processors for the given
// requesters (processor ids issuing one request each; a requester's
// own id is excluded from its random choices). r supplies all
// randomness. maxRounds <= 0 selects the paper's round budget.
//
// Run panics if params fail Validate; callers are expected to
// validate configuration at setup time.
//
// Run allocates a fresh execution's worth of memory; hot paths that
// execute the protocol repeatedly should hold a Scratch and call its
// Run method, which reuses buffers. Both produce identical results for
// the same stream.
func Run(n int, requesters []int32, p Params, r *xrand.Stream, maxRounds int) Result {
	var s Scratch
	return s.Run(n, requesters, p, r, maxRounds)
}

// Run executes the protocol exactly as the package-level Run does,
// reusing the Scratch's buffers. The random choices are drawn from r
// in request order, once, before the first round. The returned Result
// views the Scratch's memory and is valid until the next Run on the
// same Scratch.
func (s *Scratch) Run(n int, requesters []int32, p Params, r *xrand.Stream, maxRounds int) Result {
	if err := p.Validate(n); err != nil {
		panic(err)
	}
	if maxRounds <= 0 {
		maxRounds = p.DefaultRounds(n)
	}
	nr := len(requesters)
	a := p.A

	// Clear the processor counters dirtied by the previous Run (the
	// arrival counters are already zero: every round resets the
	// entries it touched).
	full := s.acceptCnt[:cap(s.acceptCnt)]
	for _, t := range s.dirty {
		full[t] = 0
	}
	s.dirty = s.dirty[:0]
	if cap(s.acceptCnt) < n {
		s.acceptCnt = make([]int8, n)
	} else {
		s.acceptCnt = s.acceptCnt[:n]
	}
	s.arrivals = growI32(s.arrivals, n)

	res := Result{
		Accepted:    growHdr(&s.accHdr, nr),
		Satisfied:   growBool(&s.satisfied, nr),
		AcceptCount: s.acceptCnt,
	}
	if nr == 0 {
		res.AllSatisfied = true
		return res
	}

	// Random choices: fixed once, reused every round, drawn from r in
	// request order.
	need := nr * a
	s.choices = growI32(s.choices, need)
	s.accBack = growI32(s.accBack, need)
	s.accepted = growBoolSlice(s.accepted, need)
	clear(s.accepted)
	clear(res.Satisfied)
	if cap(s.sample) < a {
		s.sample = make([]int, a)
	}
	buf := s.sample[:a]
	for i, req := range requesters {
		r.SampleDistinct(buf, a, n, int(req))
		base := i * a
		for j, v := range buf {
			s.choices[base+j] = int32(v)
		}
		res.Accepted[i] = s.accBack[base : base : base+a]
	}

	if cap(s.active) < nr {
		s.active = make([]int, nr)
	}
	active := s.active[:nr]
	for i := range active {
		active[i] = i
	}
	s.touched = s.touched[:0]

	for round := 0; round < maxRounds && len(active) > 0; round++ {
		res.Rounds++
		res.Messages += s.runRound(active, p)
		// Commit this round's accepts and reset the arrival counters:
		// a target that stayed within c accepted all of its arrivals.
		for _, tgt := range s.touched {
			if int(s.acceptCnt[tgt])+int(s.arrivals[tgt]) <= p.C {
				if s.acceptCnt[tgt] == 0 {
					s.dirty = append(s.dirty, tgt)
				}
				s.acceptCnt[tgt] += int8(s.arrivals[tgt])
			}
			s.arrivals[tgt] = 0
		}
		s.touched = s.touched[:0]
		// Requests with >= b accepts leave the game.
		remaining := active[:0]
		for _, i := range active {
			if len(s.accHdr[i]) >= p.B {
				res.Satisfied[i] = true
				continue
			}
			remaining = append(remaining, i)
		}
		active = remaining
	}
	res.Steps = res.Rounds * p.StepsPerRound()
	res.AllSatisfied = len(active) == 0
	return res
}

// runRound plays one round: deliver queries, then accept or collide.
// The accept decision for a query at tgt is a pure function of
// (acceptCnt[tgt], arrivals[tgt]), both fixed before the acceptance
// pass, so iteration order is irrelevant to the outcome. It returns
// the round's message count.
func (s *Scratch) runRound(active []int, p Params) int64 {
	a := p.A
	var msgs int64
	for _, i := range active {
		base := i * a
		for j := 0; j < a; j++ {
			if s.accepted[base+j] {
				continue
			}
			tgt := s.choices[base+j]
			if s.arrivals[tgt] == 0 {
				s.touched = append(s.touched, tgt)
			}
			s.arrivals[tgt]++
			msgs++
		}
	}
	for _, i := range active {
		base := i * a
		for j := 0; j < a; j++ {
			if s.accepted[base+j] {
				continue
			}
			tgt := s.choices[base+j]
			if int(s.acceptCnt[tgt])+int(s.arrivals[tgt]) <= p.C {
				s.accepted[base+j] = true
				s.accHdr[i] = append(s.accHdr[i], tgt)
				msgs++ // accept message
			}
		}
	}
	return msgs
}

// growI32 reslices buf to n entries, reallocating when capacity is
// short; contents are unspecified.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growBoolSlice reslices buf to n entries without clearing.
func growBoolSlice(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// growBool resizes *buf to n entries and returns it.
func growBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growHdr resizes *hdr to n entries and returns it.
func growHdr(hdr *[][]int32, n int) [][]int32 {
	if cap(*hdr) < n {
		*hdr = make([][]int32, n)
	}
	*hdr = (*hdr)[:n]
	return *hdr
}
