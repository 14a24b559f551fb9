// Package supermarket computes the analytic steady state of
// Mitzenmacher's supermarket model (Section 1.1: customers arrive as a
// Poisson stream of rate lambda*n, each samples d queues and joins the
// shortest; service rate 1).
//
// In the mean-field (n -> infinity) limit the fraction of queues with
// at least k customers is
//
//	s_k = lambda^((d^k - 1) / (d - 1))
//
// — a doubly exponential tail, which is why the max load is
// log log n / log d + O(1). For d = 1 the formula degenerates to the
// M/M/1 geometric tail s_k = lambda^k. The experiment harness uses
// these tails as the theory column next to the measured greedy-d
// placer (baselines.GreedyD; d=2 is the registered "supermarket"
// policy), which is the discrete-time realization of the same process.
package supermarket

import (
	"fmt"
	"math"
)

// Tail returns s_k = P(queue length >= k) in the mean-field limit for
// arrival rate lambda in (0, 1) and d >= 1 choices. It panics on
// parameters outside those ranges.
func Tail(lambda float64, d, k int) float64 {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("supermarket: lambda %v out of (0, 1)", lambda))
	}
	if d < 1 {
		panic(fmt.Sprintf("supermarket: d %d < 1", d))
	}
	if k <= 0 {
		return 1
	}
	if d == 1 {
		return math.Pow(lambda, float64(k))
	}
	exp := (math.Pow(float64(d), float64(k)) - 1) / float64(d-1)
	return math.Pow(lambda, exp)
}

// ExpectedMaxLoad estimates the maximum queue length among n queues:
// the smallest k with n * s_k <= 1.
func ExpectedMaxLoad(lambda float64, d, n int) int {
	if n < 1 {
		return 0
	}
	for k := 1; k < 4096; k++ {
		if float64(n)*Tail(lambda, d, k) <= 1 {
			return k
		}
	}
	return 4096
}
