package supermarket

import (
	"math"
	"testing"

	"plb/internal/baselines"
	"plb/internal/gen"
	"plb/internal/sim"
	"plb/internal/stats"
)

func TestTailBasics(t *testing.T) {
	if Tail(0.5, 2, 0) != 1 || Tail(0.5, 2, -1) != 1 {
		t.Fatal("Tail at k<=0 must be 1")
	}
	// d=1 is the M/M/1 geometric tail.
	if got := Tail(0.5, 1, 3); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("d=1 tail = %v", got)
	}
	// d=2: s_k = lambda^(2^k - 1).
	if got := Tail(0.5, 2, 3); math.Abs(got-math.Pow(0.5, 7)) > 1e-12 {
		t.Fatalf("d=2 tail = %v", got)
	}
}

func TestTailMonotone(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		prev := 1.0
		for k := 1; k < 20; k++ {
			cur := Tail(0.8, d, k)
			if cur > prev {
				t.Fatalf("tail not decreasing at d=%d k=%d", d, k)
			}
			prev = cur
		}
	}
}

func TestTwoChoicesCollapseTail(t *testing.T) {
	// The whole point: d=2 tails are doubly exponentially smaller.
	if Tail(0.9, 2, 8) >= Tail(0.9, 1, 8) {
		t.Fatal("two choices did not shrink the tail")
	}
	if Tail(0.9, 2, 8) > 1e-6 {
		t.Fatalf("d=2 tail at k=8 = %v, expected tiny", Tail(0.9, 2, 8))
	}
}

func TestExpectedMaxLoadGrowth(t *testing.T) {
	// d=1 max grows like log n; d=2 like log log n.
	d1small := ExpectedMaxLoad(0.8, 1, 1<<10)
	d1large := ExpectedMaxLoad(0.8, 1, 1<<20)
	if d1large < d1small+8 {
		t.Fatalf("d=1 max growth too slow: %d -> %d", d1small, d1large)
	}
	d2small := ExpectedMaxLoad(0.8, 2, 1<<10)
	d2large := ExpectedMaxLoad(0.8, 2, 1<<20)
	if d2large-d2small > 2 {
		t.Fatalf("d=2 max grew too fast: %d -> %d", d2small, d2large)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Tail(0, 2, 1) },
		func() { Tail(1, 2, 1) },
		func() { Tail(0.5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestMeasuredTailMatchesFixedPoint validates the greedy-2 placer
// against the mean-field prediction: under Single(p, eps) generation
// (arrival rate p per processor-step, unit service probability p+eps
// ... effective utilization ~ p/(p+eps)) the measured tail of the
// queue-length distribution should track the d=2 fixed point's shape.
func TestMeasuredTailMatchesFixedPoint(t *testing.T) {
	const n = 4096
	g, err := baselines.NewGreedyD(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Placer: g, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(2000)
	hist := stats.NewHist(64)
	for round := 0; round < 10; round++ {
		m.Run(50)
		for _, l := range m.Snapshot() {
			hist.Add(int(l))
		}
	}
	// Discrete-time dynamics differ from the Poisson model in
	// constants, so compare shapes: the measured tail must collapse
	// at least doubly exponentially, i.e. far below the single-choice
	// geometric at the same utilization.
	lambda := 0.4 / 0.5
	k := 4
	measured := hist.TailProb(k)
	single := Tail(lambda, 1, k)
	double := Tail(lambda, 2, k)
	if measured >= single {
		t.Fatalf("measured tail %v not below single-choice %v", measured, single)
	}
	// Within two orders of magnitude of the d=2 fixed point.
	if measured > 100*double+1e-3 {
		t.Fatalf("measured tail %v far above d=2 fixed point %v", measured, double)
	}
}
