package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"plb/internal/gen"
	"plb/internal/xrand"
)

// TestHeavyIndexMatchesScratch is the property test for the
// incremental heavy index: after every step of a workload with random
// injections and transfers, HeavyIDs must equal the from-scratch
// classification {p : load(p) >= H} in ascending order. The table
// covers a ring sized below the cap, a capped ring, and a threshold
// past the cap whose schedules lap the wheel, each under a
// one-task-per-step model and one that generates up to 3 per step.
// Injections and transfers scale with H, so processors cross every
// threshold in both directions. The random models drift down, so
// none of their processors climbs to H on its own within a lapped
// delta; the ramp rows generate at the bound every step, so a
// processor scheduled past the cap crosses exactly at its due step
// after a lap, and an entry dropped on the lap would miss it.
func TestHeavyIndexMatchesScratch(t *testing.T) {
	cases := []struct {
		model gen.Model
		h     int
		ring  int64 // smallest power of two above dueDelta(0), capped
	}{
		{gen.Single{P: 0.5, Eps: 0.2}, 3, 4},
		{gen.Single{P: 0.5, Eps: 0.2}, 40, 64},
		{gen.Single{P: 0.5, Eps: 0.2}, 100, 64}, // deltas up to 100: laps
		{gen.Geometric{K: 3}, 3, 2},
		{gen.Geometric{K: 3}, 40, 16},
		{gen.Geometric{K: 3}, 100, 64},
		{ramp{1}, 100, 64},
		{ramp{3}, 200, 64},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/H=%d", c.model.Name(), c.h), func(t *testing.T) {
			const n = 512
			h := c.h
			m, err := New(Config{N: n, Model: c.model, Seed: 9, Workers: 2, Sparse: true})
			if err != nil {
				t.Fatal(err)
			}
			m.ConfigureHeavyIndex(h, false)
			if ring := m.sparse.mask + 1; ring != c.ring {
				t.Fatalf("ring of %d buckets, want %d", ring, c.ring)
			}
			rng := xrand.New(123)
			for step := 0; step < 400; step++ {
				switch step % 7 {
				case 2:
					m.Inject(rng.Intn(n), rng.Intn(2*h+8))
				case 4:
					m.Transfer(rng.Intn(n), rng.Intn(n), 1+rng.Intn(h+2))
				}
				m.Step()

				got := slices.Clone(m.HeavyIDs())
				var want []int32
				for p, l := range m.Snapshot() {
					if int(l) >= h {
						want = append(want, int32(p))
					}
				}
				// Snapshot's syncAll must not have perturbed the index;
				// re-read it after the sweep.
				if !slices.Equal(got, slices.Clone(m.HeavyIDs())) {
					t.Fatalf("step %d: HeavyIDs changed across a Snapshot", step)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: heavy index %v != scratch classification %v", step, got, want)
				}
			}
		})
	}
}

// ramp generates k tasks every step on every third processor and
// consumes nothing, drawing no randomness: those processors climb at
// the MaxGenPerStep bound.
type ramp struct{ k int }

func (r ramp) Name() string { return fmt.Sprintf("ramp(k=%d)", r.k) }

func (r ramp) Generate(p int, _ *xrand.Stream, _ int64) int {
	if p%3 == 0 {
		return r.k
	}
	return 0
}

func (ramp) WantConsume(int, *xrand.Stream, int64) int { return 0 }

func (r ramp) MaxGenPerStep() int { return r.k }

// TestSparseStepLimit moves a sparse machine's clock next to the last
// step its int32 stamps can hold, by shifting every stamp by a whole
// number of wheel laps, and checks that it steps up to that limit with
// an exact heavy index and every light processor's due stamp still in
// the future, then panics naming the limit instead of wrapping.
func TestSparseStepLimit(t *testing.T) {
	const n, h = 64, 8
	m, err := New(Config{N: n, Model: gen.Single{P: 0.5, Eps: 0.2}, Seed: 3, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	m.ConfigureHeavyIndex(h, false)
	m.Inject(5, 3*h)
	m.Steps(10)
	e := m.sparse
	shift := (e.stepLimit - 4 - m.now) &^ e.mask
	m.now += shift
	e.target += shift
	for p := range e.procs {
		ps := &e.procs[p]
		ps.lastSync += int32(shift)
		if ps.scheduled != noSchedule {
			ps.scheduled += int32(shift)
		}
	}
	for m.now <= e.stepLimit {
		m.Step()
		var want []int32
		for p, l := range m.Snapshot() {
			if int(l) >= h {
				want = append(want, int32(p))
			}
		}
		if got := m.HeavyIDs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: heavy index %v != scratch classification %v", m.now-1, got, want)
		}
		for p, ps := range e.procs {
			if e.heavyPos[p] < 0 && int64(ps.scheduled) <= e.target {
				t.Fatalf("step %d: light processor %d has no live wheel entry (stamp %d)", m.now-1, p, ps.scheduled)
			}
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprint(e.stepLimit)) {
			t.Fatalf("step %d past the limit %d: panic %q, want one naming the limit", m.now, e.stepLimit, msg)
		}
	}()
	m.Step()
}
