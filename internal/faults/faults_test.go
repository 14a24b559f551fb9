package faults

import (
	"testing"
)

func TestPresets(t *testing.T) {
	if p := Lossy(0.1); p.Drop != 0.1 || p.Active() != true {
		t.Fatalf("Lossy: %+v", p)
	}
	if p := Partition(2, 100); p.PartitionGroups != 2 || p.PartitionUntil != 100 {
		t.Fatalf("Partition: %+v", p)
	}
	if p := CrashWindow(3, 10, 20); p.CrashAt != 10 || p.CrashRecover != 20 {
		t.Fatalf("CrashWindow: %+v", p)
	}
	if p := Stragglers(0.25, 4); p.StragglerFrac != 0.25 || p.Slowdown != 4 {
		t.Fatalf("Stragglers: %+v", p)
	}
	if (Plan{}).Active() {
		t.Fatal("zero plan reports active")
	}
}

func TestNormalizedClamps(t *testing.T) {
	p := Plan{Drop: 2, Dup: -1, Delay: 0.5, MaxDelay: 0, StragglerFrac: 0.1, Slowdown: 0, CrashK: -3}
	n := p.Normalized()
	if n.Drop != 1 || n.Dup != 0 {
		t.Fatalf("probabilities not clamped: %+v", n)
	}
	if n.MaxDelay != 1 {
		t.Fatalf("MaxDelay not forced to 1: %+v", n)
	}
	if n.Slowdown != 2 {
		t.Fatalf("Slowdown not forced to 2: %+v", n)
	}
	if n.CrashK != 0 {
		t.Fatalf("negative CrashK kept: %+v", n)
	}
}

func TestMergeComposes(t *testing.T) {
	p := Lossy(0.05).Merge(CrashWindow(2, 0, -1)).Merge(Stragglers(0.1, 4))
	if p.Drop != 0.05 || p.CrashK != 2 || p.StragglerFrac != 0.1 || p.Slowdown != 4 {
		t.Fatalf("merge lost fields: %+v", p)
	}
	q := Plan{Crashes: []Crash{{Proc: 1, At: 0, Recover: -1}}}.Merge(
		Plan{Crashes: []Crash{{Proc: 2, At: 5, Recover: 9}}})
	if len(q.Crashes) != 2 {
		t.Fatalf("crash schedules not concatenated: %+v", q)
	}
}

func TestNewInjectorRejectsBadN(t *testing.T) {
	if _, err := NewInjector(0, Plan{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestCrashWindows(t *testing.T) {
	inj, err := NewInjector(8, Plan{Crashes: []Crash{
		{Proc: 3, At: 10, Recover: 20},
		{Proc: 5, At: 0, Recover: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    int32
		step int64
		want bool
	}{
		{3, 9, false}, {3, 10, true}, {3, 19, true}, {3, 20, false},
		{5, 0, true}, {5, 1 << 40, true},
		{0, 10, false}, {-1, 10, false}, {99, 10, false},
	}
	for _, c := range cases {
		if got := inj.Crashed(c.p, c.step); got != c.want {
			t.Errorf("Crashed(%d, %d) = %v, want %v", c.p, c.step, got, c.want)
		}
	}
}

func TestCrashRandomPicksExactlyK(t *testing.T) {
	n, k := 64, 7
	inj, err := NewInjector(n, CrashWindow(k, 0, -1))
	if err != nil {
		t.Fatal(err)
	}
	down := 0
	for p := 0; p < n; p++ {
		if inj.Crashed(int32(p), 100) {
			down++
		}
	}
	if down != k {
		t.Fatalf("%d processors down, want %d", down, k)
	}
	// CrashFrac selects the same count via a fraction.
	inj2, err := NewInjector(n, Plan{CrashFrac: float64(k) / float64(n), CrashRecover: -1})
	if err != nil {
		t.Fatal(err)
	}
	down = 0
	for p := 0; p < n; p++ {
		if inj2.Crashed(int32(p), 0) {
			down++
		}
	}
	if down != k {
		t.Fatalf("CrashFrac: %d down, want %d", down, k)
	}
}

func TestStragglerSelection(t *testing.T) {
	n := 100
	inj, err := NewInjector(n, Stragglers(0.2, 4))
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for p := 0; p < n; p++ {
		if inj.Straggler(int32(p)) {
			slow++
		}
	}
	if slow != 20 {
		t.Fatalf("%d stragglers, want 20", slow)
	}
	// Every message from a straggler is delayed by Slowdown-1.
	for p := int32(0); p < int32(n); p++ {
		f := inj.Fate(1, 1, p, (p+1)%int32(n))
		wantDelay := 0
		if inj.Straggler(p) {
			wantDelay = 3
		}
		if f.Delay != wantDelay {
			t.Fatalf("proc %d: delay %d, want %d", p, f.Delay, wantDelay)
		}
	}
}

func TestPartitionCutsCrossGroupOnly(t *testing.T) {
	inj, err := NewInjector(8, Partition(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Fate(10, 1, 0, 1).Drop {
		t.Fatal("cross-group message survived the partition")
	}
	if inj.Fate(10, 1, 0, 2).Drop {
		t.Fatal("intra-group message dropped")
	}
	if inj.Fate(50, 1, 0, 1).Drop {
		t.Fatal("partition outlived its window")
	}
}

func TestFateDropRate(t *testing.T) {
	inj, err := NewInjector(16, Lossy(0.3))
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	const total = 20000
	for i := 0; i < total; i++ {
		if inj.Fate(int64(i/16), int64(i), int32(i%16), int32((i+1)%16)).Drop {
			drops++
		}
	}
	rate := float64(drops) / total
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("drop rate %v, want ~0.3", rate)
	}
}

func TestFateDeterministicAcrossInjectors(t *testing.T) {
	plan := Lossy(0.2).Merge(Plan{Dup: 0.1, Delay: 0.3, MaxDelay: 4, Seed: 99})
	a, err := NewInjector(32, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(32, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		step, seq := int64(i/32), int64(i)
		from, to := int32(i%32), int32((i*7)%32)
		if a.Fate(step, seq, from, to) != b.Fate(step, seq, from, to) {
			t.Fatalf("same-seed injectors diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, _ := NewInjector(32, Plan{Drop: 0.5, Seed: 1})
	b, _ := NewInjector(32, Plan{Drop: 0.5, Seed: 2})
	same := true
	for i := 0; i < 256 && same; i++ {
		if a.Fate(0, int64(i), 0, 1) != b.Fate(0, int64(i), 0, 1) {
			same = false
		}
	}
	if same {
		t.Fatal("256 verdicts identical across different seeds")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("lossy:0.05,dup:0.01,delay:0.1@3,crash:0.1@2000-4000,straggle:0.1@4,partition:2@500,seed:42,redistribute")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.05 || p.Dup != 0.01 || p.Delay != 0.1 || p.MaxDelay != 3 {
		t.Fatalf("network faults wrong: %+v", p)
	}
	if p.CrashFrac != 0.1 || p.CrashAt != 2000 || p.CrashRecover != 4000 {
		t.Fatalf("crash wrong: %+v", p)
	}
	if p.StragglerFrac != 0.1 || p.Slowdown != 4 {
		t.Fatalf("stragglers wrong: %+v", p)
	}
	if p.PartitionGroups != 2 || p.PartitionUntil != 500 {
		t.Fatalf("partition wrong: %+v", p)
	}
	if p.Seed != 42 || !p.Redistribute {
		t.Fatalf("seed/policy wrong: %+v", p)
	}
	if q, err := ParsePlan("crash:8"); err != nil || q.CrashK != 8 || q.CrashRecover != -1 {
		t.Fatalf("count-form crash: %+v, %v", q, err)
	}
	if q, err := ParsePlan(""); err != nil || q.Active() {
		t.Fatalf("empty spec: %+v, %v", q, err)
	}
}

func TestParsePlanRejects(t *testing.T) {
	for _, spec := range []string{
		"bogus:1", "lossy:1.5", "lossy:x", "delay:0.1", "delay:0.1@0",
		"crash:0", "crash:2@10-5", "straggle:0.1@1", "partition:1@10",
		"partition:2@0", "seed:abc",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestFlapPresetAndParse(t *testing.T) {
	if p := Flap(4, 100, 0.5); p.FlapK != 4 || p.FlapPeriod != 100 || p.FlapDuty != 0.5 || !p.Active() {
		t.Fatalf("Flap: %+v", p)
	}
	p, err := ParsePlan("flap:k=4,period=200,duty=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if p.FlapK != 4 || p.FlapPeriod != 200 || p.FlapDuty != 0.25 {
		t.Fatalf("parsed flap wrong: %+v", p)
	}
	// Fraction form, default duty, arbitrary argument order, composition
	// with other directives.
	p, err = ParsePlan("lossy:0.1,flap:period=40,k=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if p.FlapFrac != 0.25 || p.FlapK != 0 || p.FlapPeriod != 40 || p.FlapDuty != 0.5 || p.Drop != 0.1 {
		t.Fatalf("fraction flap wrong: %+v", p)
	}
	for _, spec := range []string{
		"flap:k=4", "flap:period=40", "flap:k=0,period=40", "flap:k=4,period=1",
		"flap:k=4,period=40,duty=0", "flap:k=4,period=40,duty=1.5",
		"flap:k=4,period=40,nope=1", "flap:k",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestFlapperEdges pins the degenerate corners of the flap schedule:
// a zero duty is inert (nobody is flagged, nobody crashes), a full
// duty is a permanent crash, a period of 1 normalizes up to the
// minimum cycle of 2, and a lone flapper still gets a well-formed
// staggered, periodic, deterministic schedule.
func TestFlapperEdges(t *testing.T) {
	const n = 16

	t.Run("duty=0", func(t *testing.T) {
		plan := Flap(4, 50, 0)
		if plan.Active() {
			t.Fatalf("zero-duty flap counts as active: %+v", plan)
		}
		inj, err := NewInjector(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		for p := int32(0); p < n; p++ {
			if inj.Flapper(p) {
				t.Fatalf("zero-duty plan flagged processor %d", p)
			}
			for s := int64(0); s < 100; s++ {
				if inj.Crashed(p, s) {
					t.Fatalf("zero-duty plan crashed %d at step %d", p, s)
				}
			}
		}
	})

	t.Run("duty=1", func(t *testing.T) {
		inj, err := NewInjector(n, Flap(2, 10, 1))
		if err != nil {
			t.Fatal(err)
		}
		flappers := 0
		for p := int32(0); p < n; p++ {
			for s := int64(0); s < 30; s++ {
				if got, want := inj.Crashed(p, s), inj.Flapper(p); got != want {
					t.Fatalf("full duty: processor %d at step %d crashed=%v, want %v (permanently down iff flagged)",
						p, s, got, want)
				}
			}
			if inj.Flapper(p) {
				flappers++
			}
		}
		if flappers != 2 {
			t.Fatalf("flagged %d processors, want 2", flappers)
		}
	})

	t.Run("period=1", func(t *testing.T) {
		// An active flap with period 1 normalizes to the minimum cycle
		// of 2, so a 0.5 duty is down exactly one step in every two.
		plan := Plan{FlapK: 1, FlapPeriod: 1, FlapDuty: 0.5}
		inj, err := NewInjector(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		var flapper int32 = -1
		for p := int32(0); p < n; p++ {
			if inj.Flapper(p) {
				flapper = p
			}
		}
		if flapper < 0 {
			t.Fatal("no processor flagged")
		}
		for s := int64(0); s < 20; s += 2 {
			down := 0
			if inj.Crashed(flapper, s) {
				down++
			}
			if inj.Crashed(flapper, s+1) {
				down++
			}
			if down != 1 {
				t.Fatalf("normalized period-2 cycle at step %d: down %d of 2 steps, want 1", s, down)
			}
		}
	})

	t.Run("k=1 stagger", func(t *testing.T) {
		const period = 40
		inj, err := NewInjector(n, Flap(1, period, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		var flapper int32 = -1
		for p := int32(0); p < n; p++ {
			if inj.Flapper(p) {
				if flapper >= 0 {
					t.Fatalf("k=1 flagged both %d and %d", flapper, p)
				}
				flapper = p
			}
		}
		if flapper < 0 {
			t.Fatal("k=1 flagged nobody")
		}
		down := 0
		for s := int64(0); s < period; s++ {
			if inj.Crashed(flapper, s) {
				down++
			}
			if inj.Crashed(flapper, s) != inj.Crashed(flapper, s+period) {
				t.Fatalf("lone flapper not periodic at step %d", s)
			}
		}
		if down != period/4 {
			t.Fatalf("lone flapper down %d steps per period, want %d", down, period/4)
		}
		again, _ := NewInjector(n, Flap(1, period, 0.25))
		for s := int64(0); s < 2*period; s++ {
			if inj.Crashed(flapper, s) != again.Crashed(flapper, s) {
				t.Fatalf("lone flapper schedule not deterministic at step %d", s)
			}
		}
	})
}

func TestFlapMergeAndNormalize(t *testing.T) {
	p := Lossy(0.05).Merge(Flap(4, 100, 0.5))
	if p.Drop != 0.05 || p.FlapK != 4 || p.FlapPeriod != 100 {
		t.Fatalf("merge lost flap: %+v", p)
	}
	n := Plan{FlapK: -2, FlapFrac: 1.5, FlapPeriod: 1, FlapDuty: -0.5}.Normalized()
	if n.FlapK != 0 || n.FlapFrac != 1 || n.FlapDuty != 0 {
		t.Fatalf("flap fields not clamped: %+v", n)
	}
	a := Plan{FlapK: 2, FlapPeriod: 1, FlapDuty: 0.5}.Normalized()
	if a.FlapPeriod != 2 {
		t.Fatalf("active flap period not raised to 2: %+v", a)
	}
}

// TestFlapSchedule: exactly k processors flap; each spends FlapDuty of
// every period down; offsets are staggered so the fleet does not blink
// in lockstep; the schedule repeats, is deterministic, and never
// touches non-flagged processors.
func TestFlapSchedule(t *testing.T) {
	const n, period = 32, 100
	inj, err := NewInjector(n, Flap(4, period, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	flappers := 0
	phases := map[int64]bool{}
	for p := int32(0); p < n; p++ {
		down := 0
		firstDown := int64(-1)
		for s := int64(0); s < period; s++ {
			if inj.Crashed(p, s) {
				down++
				if firstDown < 0 {
					firstDown = s
				}
			}
			if inj.Crashed(p, s) != inj.Crashed(p, s+period) {
				t.Fatalf("schedule for %d not periodic at step %d", p, s)
			}
		}
		if !inj.Flapper(p) {
			if down != 0 {
				t.Fatalf("non-flagged processor %d down %d steps", p, down)
			}
			continue
		}
		flappers++
		if down != period/2 {
			t.Fatalf("flapper %d down %d steps per period, want %d", p, down, period/2)
		}
		phases[firstDown] = true
	}
	if flappers != 4 {
		t.Fatalf("flagged %d processors, want 4", flappers)
	}
	if len(phases) < 2 {
		t.Fatal("all flappers share one phase: stagger missing")
	}
	again, _ := NewInjector(n, Flap(4, period, 0.5))
	for p := int32(0); p < n; p++ {
		for s := int64(0); s < 2*period; s++ {
			if inj.Crashed(p, s) != again.Crashed(p, s) {
				t.Fatalf("flap schedule not deterministic at p=%d s=%d", p, s)
			}
		}
	}
}
