// Command collision runs the standalone (n, beta, a, b, c)-collision
// protocol and reports rounds, steps and messages — the Lemma 1
// quantities.
//
// Usage:
//
//	collision [-n 65536] [-requests 0] [-a 5] [-b 2] [-c 1] [-trials 20] [-seed 1]
//
// With -requests 0, the Lemma 1 operating point n/(2a) is used.
package main

import (
	"flag"
	"fmt"
	"os"

	"plb/internal/collision"
	"plb/internal/stats"
	"plb/internal/xrand"
)

func main() {
	var (
		n      = flag.Int("n", 65536, "number of processors")
		nReq   = flag.Int("requests", 0, "number of requests (0 = n/(2a))")
		a      = flag.Int("a", 5, "queries per request")
		bb     = flag.Int("b", 2, "required accepts per request")
		c      = flag.Int("c", 1, "collision value")
		trials = flag.Int("trials", 20, "independent trials")
		seed   = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	p := collision.Params{A: *a, B: *bb, C: *c}
	if err := p.Validate(*n); err != nil {
		fmt.Fprintln(os.Stderr, "collision:", err)
		os.Exit(2)
	}
	req := *nReq
	if req <= 0 {
		req = *n / (2 * p.A)
	}

	root := xrand.New(*seed)
	success := 0
	var rounds, msgs, steps float64
	for trial := 0; trial < *trials; trial++ {
		r := root.Split(uint64(trial))
		buf := make([]int, req)
		r.SampleDistinct(buf, req, *n, -1)
		reqs := make([]int32, req)
		for i, v := range buf {
			reqs[i] = int32(v)
		}
		res := collision.Run(*n, reqs, p, r, 0)
		if res.AllSatisfied {
			success++
		}
		rounds += float64(res.Rounds)
		msgs += float64(res.Messages)
		steps += float64(res.Steps)
	}
	ft := float64(*trials)
	fmt.Printf("(n=%d, a=%d, b=%d, c=%d) with %d requests, %d trials\n", *n, p.A, p.B, p.C, req, *trials)
	fmt.Printf("round budget     = %d (paper: log log n / log(c(a-b)) + 3)\n", p.DefaultRounds(*n))
	fmt.Printf("all satisfied    = %d/%d trials\n", success, *trials)
	fmt.Printf("mean rounds      = %.2f\n", rounds/ft)
	fmt.Printf("mean steps       = %.2f (Lemma 1 budget 5 log log n = %.1f)\n", steps/ft, 5*stats.LogLog2(*n))
	fmt.Printf("mean msgs/request= %.2f\n", msgs/ft/float64(req))
}
