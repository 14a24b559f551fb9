package gen

import (
	"math"
	"slices"
	"strings"
	"testing"

	"plb/internal/xrand"
)

func TestNewSingleValidation(t *testing.T) {
	cases := []struct {
		p, eps float64
		ok     bool
	}{
		{0.4, 0.1, true},
		{0.9, 0.1, true},
		{0, 0.1, false},
		{0.5, 0, false},
		{0.95, 0.1, false},
		{-0.1, 0.2, false},
	}
	for _, c := range cases {
		_, err := NewSingle(c.p, c.eps)
		if (err == nil) != c.ok {
			t.Errorf("NewSingle(%v,%v) err=%v, want ok=%v", c.p, c.eps, err, c.ok)
		}
	}
}

func TestSingleRates(t *testing.T) {
	s, err := NewSingle(0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	const steps = 200000
	gen, con := 0, 0
	for i := 0; i < steps; i++ {
		gen += s.Generate(0, r, int64(i))
		con += s.WantConsume(0, r, int64(i))
	}
	if g := float64(gen) / steps; math.Abs(g-0.4) > 0.01 {
		t.Errorf("generation rate %v, want ~0.4", g)
	}
	if c := float64(con) / steps; math.Abs(c-0.5) > 0.01 {
		t.Errorf("consumption rate %v, want ~0.5", c)
	}
}

func TestSingleGainLoss(t *testing.T) {
	s := Single{P: 0.4, Eps: 0.1}
	pg, pl := s.SteadyStateGainLoss()
	if math.Abs(pg-0.4*0.5) > 1e-12 {
		t.Errorf("pg = %v", pg)
	}
	if math.Abs(pl-0.5*0.6) > 1e-12 {
		t.Errorf("pl = %v", pl)
	}
	if pg >= pl {
		t.Error("stability requires pg < pl")
	}
}

func TestNewGeometricValidation(t *testing.T) {
	if _, err := NewGeometric(0); err == nil {
		t.Error("NewGeometric(0) should fail")
	}
	if _, err := NewGeometric(63); err == nil {
		t.Error("NewGeometric(63) should fail")
	}
	if _, err := NewGeometric(4); err != nil {
		t.Errorf("NewGeometric(4) failed: %v", err)
	}
}

func TestGeometricDistribution(t *testing.T) {
	g, _ := NewGeometric(4)
	r := xrand.New(2)
	const draws = 400000
	counts := make([]int, 5)
	for i := 0; i < draws; i++ {
		v := g.Generate(0, r, 0)
		if v < 0 || v > 4 {
			t.Fatalf("Generate = %d out of range", v)
		}
		counts[v]++
	}
	// P(i) = 2^-(i+1) for i=1..4.
	for i := 1; i <= 4; i++ {
		want := 1 / float64(int64(1)<<uint(i+1))
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.005 {
			t.Errorf("P(%d tasks) = %v, want %v", i, got, want)
		}
	}
	// Remaining mass (> 1/2) generates nothing.
	if p0 := float64(counts[0]) / draws; p0 < 0.5 {
		t.Errorf("P(0 tasks) = %v, want > 0.5", p0)
	}
	if g.WantConsume(0, r, 0) != 1 {
		t.Error("Geometric consumption must be deterministic 1")
	}
}

func TestGeometricExpectedPerStep(t *testing.T) {
	g, _ := NewGeometric(2)
	// 1*1/4 + 2*1/8 = 0.5
	if e := g.ExpectedPerStep(); math.Abs(e-0.5) > 1e-12 {
		t.Errorf("ExpectedPerStep = %v", e)
	}
	// The stability condition: expected generation < 1 consumption.
	g8, _ := NewGeometric(8)
	if e := g8.ExpectedPerStep(); e >= 1 {
		t.Errorf("Geometric(8) expected %v >= 1", e)
	}
}

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti([]float64{0.5, 0.3, 0.1}); err != nil {
		t.Errorf("valid Multi rejected: %v", err)
	}
	if _, err := NewMulti([]float64{0.5, -0.1}); err == nil {
		t.Error("negative prob accepted")
	}
	if _, err := NewMulti([]float64{0.9, 0.2}); err == nil {
		t.Error("sum > 1 accepted")
	}
	if _, err := NewMulti([]float64{0, 0, 0.5}); err == nil {
		t.Error("unstable mean >= 1 accepted")
	}
}

func TestMultiDistribution(t *testing.T) {
	m, err := NewMulti([]float64{0.5, 0.25, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	const draws = 300000
	counts := make([]int, 3)
	for i := 0; i < draws; i++ {
		counts[m.Generate(0, r, 0)]++
	}
	want := []float64{0.5 + 0.1, 0.25, 0.15} // leftover mass 0.1 falls to 0
	for i := range counts {
		got := float64(counts[i]) / draws
		if math.Abs(got-want[i]) > 0.005 {
			t.Errorf("P(%d) = %v, want %v", i, got, want[i])
		}
	}
	if got := m.ExpectedPerStep(); math.Abs(got-(0.25+0.3)) > 1e-12 {
		t.Errorf("ExpectedPerStep = %v", got)
	}
	if m.MaxPerStep() != 2 {
		t.Errorf("MaxPerStep = %d", m.MaxPerStep())
	}
}

func TestModelNames(t *testing.T) {
	s, _ := NewSingle(0.4, 0.1)
	g, _ := NewGeometric(3)
	m, _ := NewMulti([]float64{0.5, 0.25})
	for _, mod := range []Model{s, g, m} {
		if mod.Name() == "" {
			t.Error("empty model name")
		}
	}
	if !strings.HasPrefix(s.Name(), "single") {
		t.Errorf("Single name = %q", s.Name())
	}
}

func TestAdversarialValidation(t *testing.T) {
	if _, err := NewAdversarial(nil, 10, 10, 100, 1); err == nil {
		t.Error("nil adversary accepted")
	}
	if _, err := NewAdversarial(Burst{}, 0, 10, 100, 1); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewAdversarial(Burst{Targets: 1, Amount: 1, Window: 1}, 10, 10, 100, 1); err != nil {
		t.Errorf("valid adversarial rejected: %v", err)
	}
}

func TestAdversarialWindowBudget(t *testing.T) {
	// Adversary asks for 10 tasks on processor 0 every step; budget is
	// 15 per 4-step window, so each window should grant exactly 15.
	greedy := adversaryFunc{
		name: "greedy",
		plan: func(_ int64, _ []int32, gens []int32, _ *xrand.Stream) { gens[0] = 10 },
	}
	a, err := NewAdversarial(greedy, 4, 15, 1_000_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int32, 4)
	grantedWindow := 0
	for now := int64(0); now < 8; now++ {
		a.BeginStep(now, loads)
		g := a.Generate(0, nil, now)
		if now%4 == 0 {
			grantedWindow = 0
		}
		grantedWindow += g
		if grantedWindow > 15 {
			t.Fatalf("window budget exceeded: %d at step %d", grantedWindow, now)
		}
		loads[0] += int32(g) // accumulate (no consumption) to stress bound
	}
	if a.ClampedWindow == 0 {
		t.Error("expected window clamping to trigger")
	}
}

func TestAdversarialSystemBound(t *testing.T) {
	greedy := adversaryFunc{
		name: "flood",
		plan: func(_ int64, _ []int32, gens []int32, _ *xrand.Stream) {
			for i := range gens {
				gens[i] = 100
			}
		},
	}
	a, err := NewAdversarial(greedy, 1000, 1000000, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int32, 10)
	var total int64
	for now := int64(0); now < 5; now++ {
		a.BeginStep(now, loads)
		for p := range loads {
			g := a.Generate(p, nil, now)
			loads[p] += int32(g)
		}
		total = 0
		for _, l := range loads {
			total += int64(l)
		}
		if total > 50 {
			t.Fatalf("system bound exceeded: %d", total)
		}
	}
	if total != 50 {
		t.Fatalf("flood adversary should saturate the bound, total = %d", total)
	}
	if a.ClampedSystem == 0 {
		t.Error("expected system clamping to trigger")
	}
}

func TestAdversarialNegativeRequestIgnored(t *testing.T) {
	bad := adversaryFunc{
		name: "neg",
		plan: func(_ int64, _ []int32, gens []int32, _ *xrand.Stream) { gens[0] = -5 },
	}
	a, _ := NewAdversarial(bad, 4, 10, 100, 1)
	loads := make([]int32, 2)
	a.BeginStep(0, loads)
	if g := a.Generate(0, nil, 0); g != 0 {
		t.Fatalf("negative request produced %d tasks", g)
	}
}

func TestBurstPlan(t *testing.T) {
	b := Burst{Targets: 3, Amount: 7, Window: 5}
	r := xrand.New(11)
	loads := make([]int32, 16)
	gens := make([]int32, 16)
	wrote := b.Plan(0, loads, gens, r, nil)
	if len(wrote) != 3 {
		t.Fatalf("burst reported %v, want 3 targets", wrote)
	}
	for _, p := range wrote {
		if gens[p] != 7 {
			t.Fatalf("burst reported %d but set gens[%d] = %d", p, p, gens[p])
		}
	}
	hit := 0
	for _, g := range gens {
		if g == 7 {
			hit++
		} else if g != 0 {
			t.Fatalf("unexpected generation %d", g)
		}
	}
	if hit != 3 {
		t.Fatalf("burst hit %d targets, want 3", hit)
	}
	// Off-window step generates nothing.
	for i := range gens {
		gens[i] = 0
	}
	if wrote := b.Plan(2, loads, gens, r, nil); len(wrote) != 0 {
		t.Fatalf("off-window burst reported %v", wrote)
	}
	for _, g := range gens {
		if g != 0 {
			t.Fatal("burst fired off-window")
		}
	}
}

func TestBurstTargetsClamped(t *testing.T) {
	b := Burst{Targets: 100, Amount: 1, Window: 1}
	r := xrand.New(13)
	loads := make([]int32, 4)
	gens := make([]int32, 4)
	b.Plan(0, loads, gens, r, nil) // must not panic with Targets > n
	for _, g := range gens {
		if g != 1 {
			t.Fatal("clamped burst should hit everyone")
		}
	}
}

func TestTreePlan(t *testing.T) {
	tr := Tree{Spawn: 1.0, Branch: 2, Roots: 0}
	r := xrand.New(17)
	loads := []int32{0, 3, 0, 1}
	gens := make([]int32, 4)
	if wrote := tr.Plan(0, loads, gens, r, nil); !slices.Equal(wrote, []int32{1, 3}) {
		t.Errorf("tree reported %v, want [1 3]", wrote)
	}
	if gens[0] != 0 || gens[2] != 0 {
		t.Error("idle processors spawned children")
	}
	if gens[1] != 2 || gens[3] != 2 {
		t.Errorf("busy processors gens = %v, want 2 each", gens)
	}
}

func TestTreeRoots(t *testing.T) {
	tr := Tree{Spawn: 0, Branch: 0, Roots: 5}
	r := xrand.New(19)
	loads := make([]int32, 8)
	gens := make([]int32, 8)
	total := int32(0)
	const steps = 10000
	for i := int64(0); i < steps; i++ {
		for j := range gens {
			gens[j] = 0
		}
		tr.Plan(i, loads, gens, r, nil)
		for _, g := range gens {
			total += g
		}
	}
	mean := float64(total) / steps
	if math.Abs(mean-5) > 0.2 {
		t.Errorf("root injection rate %v, want ~5", mean)
	}
}

func TestHotspotMoves(t *testing.T) {
	h := &Hotspot{Rate: 3, Window: 10}
	r := xrand.New(23)
	loads := make([]int32, 64)
	gens := make([]int32, 64)
	spots := make(map[int]bool)
	for now := int64(0); now < 200; now++ {
		for i := range gens {
			gens[i] = 0
		}
		wrote := h.Plan(now, loads, gens, r, nil)
		if len(wrote) != 1 || gens[wrote[0]] != 3 {
			t.Fatalf("hotspot reported %v at step %d", wrote, now)
		}
		count := 0
		for i, g := range gens {
			if g == 3 {
				spots[i] = true
				count++
			} else if g != 0 {
				t.Fatalf("unexpected rate %d", g)
			}
		}
		if count != 1 {
			t.Fatalf("hotspot count %d at step %d", count, now)
		}
	}
	if len(spots) < 5 {
		t.Errorf("hotspot visited only %d locations over 20 windows", len(spots))
	}
}

// TestAdversarialPlanContract checks BeginStep's planning contract
// against a reference that zeroes, resets and clamps all n processors
// every step (the model's definition): the returned ids are ascending
// and distinct, every processor outside them generates nothing, and
// generation and clamp counters match the reference exactly.
func TestAdversarialPlanContract(t *testing.T) {
	const n = 64
	advs := map[string]func() Adversary{
		"burst":   func() Adversary { return Burst{Targets: 9, Amount: 7, Window: 3} },
		"tree":    func() Adversary { return Tree{Spawn: 0.4, Branch: 3, Roots: 2} },
		"hotspot": func() Adversary { return &Hotspot{Rate: 5, Window: 4} },
	}
	for name, mk := range advs {
		t.Run(name, func(t *testing.T) {
			a, err := NewAdversarial(mk(), 5, 12, 300, 3)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refAdversarial{adv: mk(), windowT: 5, budget: 12, bound: 300, r: xrand.New(3)}
			loads := make([]int32, n)
			lr := xrand.New(99)
			for now := int64(0); now < 400; now++ {
				planned := a.BeginStep(now, loads)
				ref.beginStep(now, loads)
				if !slices.IsSorted(planned) || len(slices.Compact(slices.Clone(planned))) != len(planned) {
					t.Fatalf("step %d: planned ids %v not ascending and distinct", now, planned)
				}
				for p := 0; p < n; p++ {
					g := a.Generate(p, nil, now)
					if g != int(ref.gens[p]) {
						t.Fatalf("step %d: Generate(%d) = %d, reference %d", now, p, g, ref.gens[p])
					}
					if _, ok := slices.BinarySearch(planned, int32(p)); g != 0 && !ok {
						t.Fatalf("step %d: processor %d generates %d but is not in the plan", now, p, g)
					}
					loads[p] += int32(g)
					if loads[p] > 0 && lr.Bernoulli(0.6) {
						loads[p]--
					}
				}
			}
			if a.ClampedWindow != ref.clampedWindow || a.ClampedSystem != ref.clampedSystem {
				t.Fatalf("clamps window %d system %d, reference %d %d",
					a.ClampedWindow, a.ClampedSystem, ref.clampedWindow, ref.clampedSystem)
			}
			if a.ClampedWindow == 0 {
				t.Error("the window budget never bound; the test does not exercise it")
			}
		})
	}
}

// refAdversarial is the all-n reference of Adversarial.BeginStep.
type refAdversarial struct {
	adv                          Adversary
	windowT, budget              int
	bound                        int64
	r                            *xrand.Stream
	gens, usedWin                []int32
	clampedWindow, clampedSystem int64
}

func (a *refAdversarial) beginStep(now int64, loads []int32) {
	if a.gens == nil {
		a.gens = make([]int32, len(loads))
		a.usedWin = make([]int32, len(loads))
	}
	if now%int64(a.windowT) == 0 {
		clear(a.usedWin)
	}
	clear(a.gens)
	a.adv.Plan(now, loads, a.gens, a.r, nil)
	var total int64
	for _, l := range loads {
		total += int64(l)
	}
	for i := range a.gens {
		g := max(a.gens[i], 0)
		if room := int32(a.budget) - a.usedWin[i]; g > room {
			a.clampedWindow += int64(g - room)
			g = max(room, 0)
		}
		if total+int64(g) > a.bound {
			allowed := max(a.bound-total, 0)
			a.clampedSystem += int64(g) - allowed
			g = int32(allowed)
		}
		a.usedWin[i] += g
		total += int64(g)
		a.gens[i] = g
	}
}

// adversaryFunc adapts a closure to the Adversary interface for tests.
type adversaryFunc struct {
	name string
	plan func(now int64, loads []int32, gens []int32, r *xrand.Stream)
}

func (a adversaryFunc) Name() string { return a.name }
func (a adversaryFunc) Plan(now int64, loads []int32, gens []int32, r *xrand.Stream, wrote []int32) []int32 {
	a.plan(now, loads, gens, r)
	for i, g := range gens {
		if g != 0 {
			wrote = append(wrote, int32(i))
		}
	}
	return wrote
}

func TestUnitWeight(t *testing.T) {
	w := UnitWeight{}
	if w.Name() != "unit" || w.Weight(0, nil, 0) != 1 {
		t.Fatal("UnitWeight wrong")
	}
}

func TestNewUniformWeightValidation(t *testing.T) {
	if _, err := NewUniformWeight(0, 5); err == nil {
		t.Error("min 0 accepted")
	}
	if _, err := NewUniformWeight(5, 4); err == nil {
		t.Error("max < min accepted")
	}
	if _, err := NewUniformWeight(2, 2); err != nil {
		t.Error(err)
	}
}

func TestUniformWeightRange(t *testing.T) {
	w, _ := NewUniformWeight(2, 6)
	r := xrand.New(51)
	seen := make(map[int32]bool)
	for i := 0; i < 5000; i++ {
		v := w.Weight(0, r, 0)
		if v < 2 || v > 6 {
			t.Fatalf("weight %d out of [2,6]", v)
		}
		seen[v] = true
	}
	for v := int32(2); v <= 6; v++ {
		if !seen[v] {
			t.Fatalf("weight %d never drawn", v)
		}
	}
}

func TestNewParetoWeightValidation(t *testing.T) {
	if _, err := NewParetoWeight(0, 10); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewParetoWeight(1.5, 0); err == nil {
		t.Error("max 0 accepted")
	}
	if _, err := NewParetoWeight(1.5, 100); err != nil {
		t.Error(err)
	}
}

func TestParetoWeightTail(t *testing.T) {
	w, _ := NewParetoWeight(1.0, 1000)
	r := xrand.New(53)
	const draws = 100000
	ones, big := 0, 0
	for i := 0; i < draws; i++ {
		v := w.Weight(0, r, 0)
		if v < 1 || v > 1000 {
			t.Fatalf("weight %d out of range", v)
		}
		if v == 1 {
			ones++
		}
		if v >= 100 {
			big++
		}
	}
	// P(W = 1) ~ 1/2 for alpha=1 (u in (0.5, 1] maps to 1); P(W >= 100)
	// ~ 1/100.
	if f := float64(ones) / draws; f < 0.4 || f > 0.6 {
		t.Fatalf("P(W=1) = %v", f)
	}
	if f := float64(big) / draws; f < 0.005 || f > 0.02 {
		t.Fatalf("P(W>=100) = %v, want ~0.01", f)
	}
}

func TestWeigherNames(t *testing.T) {
	u, _ := NewUniformWeight(1, 4)
	p, _ := NewParetoWeight(1.5, 64)
	for _, w := range []Weigher{UnitWeight{}, u, p} {
		if w.Name() == "" {
			t.Fatal("empty weigher name")
		}
	}
}
