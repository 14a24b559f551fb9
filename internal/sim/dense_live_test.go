package sim

import (
	"fmt"
	"slices"
	"testing"

	"plb/internal/gen"
	"plb/internal/xrand"
)

// checkDenseLive checks a dense machine's live bookkeeping against its
// queues: the load vector, the busy set where the machine keeps one,
// the heavy set, and task conservation.
func checkDenseLive(t *testing.T, m *Machine, h int, byWeight bool, when string) {
	t.Helper()
	snap := m.Snapshot()
	var want []int32
	for p := 0; p < m.N(); p++ {
		l := m.Load(p)
		if int(snap[p]) != l {
			t.Fatalf("%s: Snapshot()[%d] = %d, Load = %d", when, p, snap[p], l)
		}
		if m.busy != nil {
			if busy := m.busy[p>>6]>>(uint(p)&63)&1 == 1; busy != (l > 0) {
				t.Fatalf("%s: busy bit of %d is %v with load %d", when, p, busy, l)
			}
		}
		key := int64(l)
		if byWeight {
			key = m.WeightedLoad(p)
		}
		if key >= int64(h) {
			want = append(want, int32(p))
		}
	}
	if got := m.HeavyIDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: HeavyIDs %v, scan %v", when, got, want)
	}
	if g, c, q := m.Generated(), m.Recorder().Completed, m.TotalLoad(); g != c+q {
		t.Fatalf("%s: generated %d != completed %d + queued %d", when, g, c, q)
	}
}

// denseLiveModel builds the Single model or a bursty adversary.
func denseLiveModel(t *testing.T, bursty bool, n int, seed uint64) gen.Model {
	t.Helper()
	if !bursty {
		return gen.Single{P: 0.4, Eps: 0.1}
	}
	adv, err := gen.NewAdversarial(gen.Burst{Targets: max(1, n/8), Amount: 6, Window: 4}, 4, 12, int64(8*n), seed)
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestDenseHeavyIDsMatchScratch is the dense counterpart of
// TestHeavyIndexMatchesScratch: after every step of a workload with
// random injections and transfers, HeavyIDs must equal the from-scratch
// classification {p : load(p) >= H} in ascending order, by the busy set
// (bursty) and by the contiguous scan (Single).
func TestDenseHeavyIDsMatchScratch(t *testing.T) {
	const n = 512
	const H = 4
	for _, bursty := range []bool{false, true} {
		m, err := New(Config{N: n, Model: denseLiveModel(t, bursty, n, 9), Seed: 9, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if (m.busy != nil) != bursty {
			t.Fatalf("bursty=%v: busy set kept = %v", bursty, m.busy != nil)
		}
		m.ConfigureHeavyIndex(H, false)
		rng := xrand.New(123)
		for step := 0; step < 400; step++ {
			switch step % 7 {
			case 2:
				m.Inject(rng.Intn(n), rng.Intn(10))
			case 4:
				m.Transfer(rng.Intn(n), rng.Intn(n), 1+rng.Intn(3))
			}
			m.Step()
			checkDenseLive(t, m, H, false, "step")
		}
	}
}

// FuzzDenseLive drives a dense machine (Single or a bursty adversary,
// Workers 1 or 8, heavy set by count or by weight) through a
// fuzzer-chosen sequence of steps and load mutations, and after every
// operation checks the live load vector, the busy set, HeavyIDs and
// conservation against the queues.
func FuzzDenseLive(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 0, 3, 0, 5, 0, 6, 0}, false, false, false)
	f.Add(uint64(42), []byte{0, 0, 1, 2, 0, 4, 0, 0, 6, 3, 5, 0}, true, true, false)
	f.Add(uint64(7), []byte{2, 0, 4, 0, 1, 1, 0, 0, 0, 3, 0, 6}, true, false, true)
	f.Add(uint64(3), []byte{0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4, 2, 4, 2, 4}, false, false, true)
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte, bursty, eight, byWeight bool) {
		const n, H = 96, 4
		workers := 1
		if eight {
			workers = 8
		}
		m, err := New(Config{N: n, Model: denseLiveModel(t, bursty, n, seed), Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		m.ConfigureHeavyIndex(H, byWeight)
		r := xrand.New(seed ^ 0xf022)
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for i, op := range ops {
			var name string
			switch op % 7 {
			case 0:
				name = "Step"
				m.Step()
			case 1:
				name = "Inject"
				m.Inject(r.Intn(n), r.Intn(9))
			case 2:
				name = "InjectWeighted"
				m.InjectWeighted(r.Intn(n), r.Intn(5), int32(1+r.Intn(4)))
			case 3:
				name = "Transfer"
				m.Transfer(r.Intn(n), r.Intn(n), r.Intn(6))
			case 4:
				name = "TransferWeight"
				m.TransferWeight(r.Intn(n), r.Intn(n), int64(r.Intn(10)))
			case 5:
				name = "Scatter"
				m.Scatter(r)
			case 6:
				name = "ScatterFrom"
				m.ScatterFrom(r.Intn(n), r)
			}
			checkDenseLive(t, m, H, byWeight, fmt.Sprintf("%s (op %d)", name, i))
		}
	})
}
