// Package static implements the static balls-into-bins games the
// paper builds on (Section 1.1): m balls are placed into n bins once,
// and the figure of merit is the maximum bin load (plus, for the
// parallel games, rounds and messages).
//
//   - SingleChoice: every ball picks one bin i.u.a.r. — max load
//     Theta(log n / log log n) for m = n, with probability 1 - o(1).
//   - GreedyD: Azar, Broder, Karlin and Upfal's sequential d-choice
//     process — max load log log n / log d + Theta(1) w.h.p.
//   - ACMR: Adler, Chakrabarti, Mitzenmacher and Rasmussen's parallel
//     threshold protocol — r communication rounds, each non-allocated
//     ball queries two bins i.u.a.r., a bin admits up to a threshold
//     per round; terminates with max load r * threshold w.h.p.
//   - Stemann: Stemann's parallel balanced allocation for m = n —
//     r rounds of a collision game yield max load
//     O(r-th root of (log n / log log n)), constant for
//     r = log log n.
//
// These are the "task allocation" (global generation) comparison
// class; the continuous baselines live in internal/baselines.
package static

import (
	"fmt"

	"plb/internal/xrand"
)

// SingleChoice throws m balls into n bins uniformly at random and
// returns the bin loads.
func SingleChoice(m, n int, r *xrand.Stream) []int {
	loads := make([]int, n)
	for i := 0; i < m; i++ {
		loads[r.Intn(n)]++
	}
	return loads
}

// GreedyD places m balls sequentially; each ball draws d bins i.u.a.r.
// (distinct) and joins the least loaded. It returns the bin loads.
// It panics unless 1 <= d <= n.
func GreedyD(m, n, d int, r *xrand.Stream) []int {
	if d < 1 || d > n {
		panic(fmt.Sprintf("static: GreedyD d=%d out of [1, n=%d]", d, n))
	}
	loads := make([]int, n)
	buf := make([]int, d)
	for i := 0; i < m; i++ {
		r.SampleDistinct(buf, d, n, -1)
		best := buf[0]
		for _, b := range buf[1:] {
			if loads[b] < loads[best] {
				best = b
			}
		}
		loads[best]++
	}
	return loads
}

// ParallelResult reports a parallel allocation game's outcome.
type ParallelResult struct {
	// Loads are the final bin loads (including any fallback
	// placements).
	Loads []int
	// MaxLoad is the maximum entry of Loads.
	MaxLoad int
	// Rounds is the number of communication rounds used.
	Rounds int
	// Messages counts ball->bin queries and bin->ball accepts.
	Messages int64
	// Unallocated is the number of balls still unplaced when the round
	// budget ran out (they are then placed with one random choice, as
	// the papers do, and are included in Loads).
	Unallocated int
}

// ACMR runs the parallel threshold protocol: in each of rounds rounds,
// every non-allocated ball queries two bins i.u.a.r. and each bin
// accepts up to threshold balls per round (first come in arrival
// order, ties by ball index). Balls left after the budget fall back to
// a single random choice. It panics on non-positive parameters.
func ACMR(m, n, rounds, threshold int, r *xrand.Stream) ParallelResult {
	if m < 0 || n < 1 || rounds < 1 || threshold < 1 {
		panic("static: ACMR requires m >= 0, n >= 1, rounds >= 1, threshold >= 1")
	}
	loads := make([]int, n)
	unplaced := make([]int, m)
	for i := range unplaced {
		unplaced[i] = i
	}
	var res ParallelResult
	admitted := make([]int, n) // per-round admissions
	for round := 0; round < rounds && len(unplaced) > 0; round++ {
		res.Rounds++
		for i := range admitted {
			admitted[i] = 0
		}
		still := unplaced[:0]
		for _, ball := range unplaced {
			b1 := r.Intn(n)
			b2 := r.Intn(n)
			res.Messages += 2
			placed := false
			for _, b := range [2]int{b1, b2} {
				if admitted[b] < threshold {
					admitted[b]++
					loads[b]++
					res.Messages++ // accept
					placed = true
					break
				}
			}
			if !placed {
				still = append(still, ball)
			}
		}
		unplaced = still
	}
	res.Unallocated = len(unplaced)
	for range unplaced {
		loads[r.Intn(n)]++
		res.Messages++
	}
	res.Loads = loads
	res.MaxLoad = maxOf(loads)
	return res
}

// Stemann runs a simplified form of Stemann's parallel balanced
// allocation for m balls and n bins: each ball commits to two bins
// i.u.a.r. once; in round k every bin accepts all of its remaining
// candidate balls if it has at most c_k of them (the collision rule),
// where the collision value c_k starts at 1 and doubles every round.
// Unplaced balls after the budget fall back to one random choice.
func Stemann(m, n, rounds int, r *xrand.Stream) ParallelResult {
	if m < 0 || n < 1 || rounds < 1 {
		panic("static: Stemann requires m >= 0, n >= 1, rounds >= 1")
	}
	type ball struct{ b1, b2 int32 }
	balls := make([]ball, m)
	for i := range balls {
		balls[i] = ball{int32(r.Intn(n)), int32(r.Intn(n))}
	}
	loads := make([]int, n)
	unplaced := make([]int, m)
	for i := range unplaced {
		unplaced[i] = i
	}
	var res ParallelResult
	cand := make([]int32, n)
	c := 1
	for round := 0; round < rounds && len(unplaced) > 0; round++ {
		res.Rounds++
		for i := range cand {
			cand[i] = 0
		}
		for _, id := range unplaced {
			cand[balls[id].b1]++
			cand[balls[id].b2]++
			res.Messages += 2
		}
		still := unplaced[:0]
		for _, id := range unplaced {
			b1, b2 := balls[id].b1, balls[id].b2
			switch {
			case cand[b1] <= int32(c):
				loads[b1]++
				res.Messages++
			case cand[b2] <= int32(c):
				loads[b2]++
				res.Messages++
			default:
				still = append(still, id)
			}
		}
		unplaced = still
		c *= 2
	}
	res.Unallocated = len(unplaced)
	for range unplaced {
		loads[r.Intn(n)]++
		res.Messages++
	}
	res.Loads = loads
	res.MaxLoad = maxOf(loads)
	return res
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Max returns the maximum entry of integer loads (0 for empty input).
func Max(loads []int) int { return maxOf(loads) }
