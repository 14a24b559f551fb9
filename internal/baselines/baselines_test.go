package baselines

import (
	"math"
	"testing"

	"plb/internal/gen"
	"plb/internal/sim"
	"plb/internal/stats"
)

func singleMachine(t *testing.T, n int, bal sim.Balancer, placer sim.Placer, seed uint64) *sim.Machine {
	t.Helper()
	m, err := sim.New(sim.Config{
		N:        n,
		Model:    gen.Single{P: 0.4, Eps: 0.1},
		Seed:     seed,
		Balancer: bal,
		Placer:   placer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUnbalancedIsNoOp(t *testing.T) {
	m := singleMachine(t, 64, Unbalanced{}, nil, 1)
	m.Run(200)
	met := m.Metrics()
	if met.Messages != 0 || met.TasksMoved != 0 {
		t.Fatalf("unbalanced moved things: %+v", met)
	}
	if m.BalancerName() != "unbalanced" {
		t.Fatalf("name = %q", m.BalancerName())
	}
}

func TestNewGreedyDValidation(t *testing.T) {
	if _, err := NewGreedyD(0); err == nil {
		t.Fatal("d=0 accepted")
	}
	g, err := NewGreedyD(2)
	if err != nil || g.D != 2 {
		t.Fatalf("NewGreedyD(2) = %v, %v", g, err)
	}
}

func TestGreedyDPlacesEverywhere(t *testing.T) {
	g, _ := NewGreedyD(2)
	m := singleMachine(t, 64, nil, g, 2)
	m.Run(500)
	if m.BalancerName() != "greedy(d=2)" {
		t.Fatalf("name = %q", m.BalancerName())
	}
	// Messages: 2d per placed task; with p=0.4 over 64 procs and 500
	// steps roughly 12800 tasks -> ~51200 messages.
	if m.Metrics().Messages == 0 {
		t.Fatal("greedy placed without messages")
	}
	// The placer destroys locality: tasks rarely complete at origin.
	rec := m.Recorder()
	if rec.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if loc := rec.LocalityFraction(); loc > 0.1 {
		t.Fatalf("greedy locality = %v, expected near 1/n", loc)
	}
}

func TestGreedyTwoBeatsOneChoice(t *testing.T) {
	// The power of two choices: max load under d=2 must be well below
	// d=1 on the same workload.
	maxFor := func(d int) float64 {
		g, err := NewGreedyD(d)
		if err != nil {
			t.Fatal(err)
		}
		var peak stats.Running
		m := singleMachine(t, 256, nil, g, 3)
		for i := 0; i < 1500; i++ {
			m.Step()
			if i > 300 {
				peak.Add(float64(m.MaxLoad()))
			}
		}
		return peak.Mean()
	}
	one := maxFor(1)
	two := maxFor(2)
	if two >= one {
		t.Fatalf("d=2 mean max load %v not below d=1 %v", two, one)
	}
}

func TestGreedyDClampedToN(t *testing.T) {
	g, _ := NewGreedyD(100)
	m := singleMachine(t, 8, nil, g, 5)
	m.Run(50) // must not panic sampling 100 distinct of 8
	if m.TotalLoad() < 0 {
		t.Fatal("impossible")
	}
}

func TestRSUEqualizes(t *testing.T) {
	b := &RSU{Seed: 7}
	m := singleMachine(t, 64, b, nil, 7)
	m.Inject(0, 1000)
	m.Run(30)
	// After 30 steps of all-pairs equalization the pile should be
	// spread: max within a small factor of average.
	avg := float64(m.TotalLoad()) / 64
	if maxLoad := float64(m.MaxLoad()); maxLoad > 6*avg+10 {
		t.Fatalf("RSU max %v vs avg %v", maxLoad, avg)
	}
	if m.Metrics().Messages < 64*30*2 {
		t.Fatalf("RSU messages = %d, expected >= 2 per processor per step", m.Metrics().Messages)
	}
}

func TestRSUNoChurnWhenBalanced(t *testing.T) {
	b := &RSU{MinDiff: 3, Seed: 9}
	m := singleMachine(t, 32, b, nil, 9)
	for p := 0; p < 32; p++ {
		m.Inject(p, 5)
	}
	m.Run(5)
	// Loads stay within the MinDiff band of each other, so no huge
	// movement should occur (generation adds +-1 noise).
	if moved := m.Metrics().TasksMoved; moved > 200 {
		t.Fatalf("RSU churned %d tasks on a balanced system", moved)
	}
}

func TestLMTriggersOnDoubling(t *testing.T) {
	b := &LM{K: 2, Floor: 4, Seed: 11}
	m := singleMachine(t, 64, b, nil, 11)
	m.Inject(0, 256)
	m.Run(10)
	if m.Metrics().BalanceActions == 0 {
		t.Fatal("LM never balanced a massively overloaded processor")
	}
	if m.Load(0) > 200 {
		t.Fatalf("LM left processor 0 at %d", m.Load(0))
	}
}

func TestLMQuietWhenStable(t *testing.T) {
	b := &LM{K: 2, Floor: 8, Seed: 13}
	m := singleMachine(t, 64, b, nil, 13)
	m.Run(100) // light stochastic load, always below floor w.h.p.
	if moved := m.Metrics().TasksMoved; moved > 500 {
		t.Fatalf("LM moved %d tasks on an idle system", moved)
	}
}

func TestLauerPullsOutliersIntoBand(t *testing.T) {
	b := &Lauer{C: 2, Seed: 17}
	m := singleMachine(t, 64, b, nil, 17)
	m.Inject(0, 640) // avg ~10, band [5, 20]
	m.Run(60)
	avg := float64(m.TotalLoad()) / 64
	if maxLoad := float64(m.MaxLoad()); maxLoad > 4*b.C*avg+10 {
		t.Fatalf("Lauer max %v vs avg %v", maxLoad, avg)
	}
}

func TestLauerInactiveInsideBand(t *testing.T) {
	b := &Lauer{C: 4, Seed: 19}
	m := singleMachine(t, 32, b, nil, 19)
	for p := 0; p < 32; p++ {
		m.Inject(p, 10)
	}
	m.Run(3)
	if moved := m.Metrics().TasksMoved; moved > 50 {
		t.Fatalf("Lauer moved %d tasks with everyone in band", moved)
	}
}

func TestThrowAirRedistributes(t *testing.T) {
	b := &ThrowAir{Interval: 4, Seed: 23}
	m := singleMachine(t, 64, b, nil, 23)
	m.Inject(0, 640)
	m.Run(5) // includes one throw at step 4 (and step 0)
	if m.Load(0) > 100 {
		t.Fatalf("ThrowAir left %d tasks on the hotspot", m.Load(0))
	}
	met := m.Metrics()
	if met.Messages == 0 || met.TasksMoved == 0 {
		t.Fatalf("ThrowAir cost nothing: %+v", met)
	}
	// Message cost ~= tasks thrown: the defining weakness.
	if met.Messages < 640 {
		t.Fatalf("ThrowAir messages = %d, want >= initial pile", met.Messages)
	}
}

func TestThrowAirDestroysLocality(t *testing.T) {
	b := &ThrowAir{Interval: 2, Seed: 29}
	m := singleMachine(t, 64, b, nil, 29)
	m.Run(1000)
	rec := m.Recorder()
	if rec.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if loc := rec.LocalityFraction(); loc > 0.5 {
		t.Fatalf("ThrowAir locality %v suspiciously high", loc)
	}
}

func TestScatterConservesTasks(t *testing.T) {
	b := &ThrowAir{Interval: 1, Seed: 31}
	m := singleMachine(t, 16, b, nil, 31)
	m.Inject(3, 100)
	before := m.TotalLoad()
	m.Step()
	after := m.TotalLoad()
	// One step: generation adds <= 16, consumption removes <= 16.
	if math.Abs(float64(after-before)) > 16 {
		t.Fatalf("scatter lost/created tasks: %d -> %d", before, after)
	}
}

func TestAllNamesDistinct(t *testing.T) {
	g1, _ := NewGreedyD(1)
	g2, _ := NewGreedyD(2)
	names := []string{
		Unbalanced{}.Name(),
		g1.Name(),
		g2.Name(),
		(&RSU{}).Name(),
		(&LM{K: 2}).Name(),
		(&Lauer{C: 2}).Name(),
		(&ThrowAir{Interval: 4}).Name(),
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("duplicate or empty name %q", n)
		}
		seen[n] = true
	}
}

func BenchmarkRSUStep(b *testing.B) {
	bal := &RSU{Seed: 1}
	m, err := sim.New(sim.Config{N: 1024, Model: gen.Single{P: 0.4, Eps: 0.1}, Balancer: bal, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func BenchmarkGreedy2Step(b *testing.B) {
	g, _ := NewGreedyD(2)
	m, err := sim.New(sim.Config{N: 1024, Model: gen.Single{P: 0.4, Eps: 0.1}, Placer: g, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

func TestLauerWithEstimatedAverage(t *testing.T) {
	// The estimator-based Lauer must still pull a hotspot down, while
	// paying the sampling messages.
	b := &Lauer{C: 2, EstimateK: 32, Seed: 37}
	m := singleMachine(t, 128, b, nil, 37)
	m.Inject(0, 1280)
	m.Run(80)
	if got := m.Load(0); got > 640 {
		t.Fatalf("estimated-average Lauer left hotspot at %d", got)
	}
	if b.Name() != "lauer95(c=2.0,est=32)" {
		t.Fatalf("name = %q", b.Name())
	}
}

func TestLauerEstimateRefreshCadence(t *testing.T) {
	b := &Lauer{C: 2, EstimateK: 8, EstimateEvery: 10, Seed: 41}
	m := singleMachine(t, 64, b, nil, 41)
	m.Run(40) // 4 refreshes (steps 0, 10, 20, 30)
	// Sampling costs 2K messages per refresh; everything else is probe
	// traffic from active processors (2 each). The message count must
	// include at least the 4 refreshes.
	if m.Metrics().Messages < 4*2*8 {
		t.Fatalf("messages = %d, sampling not accounted", m.Metrics().Messages)
	}
}
