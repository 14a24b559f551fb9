package sim

import (
	"slices"
	"testing"

	"plb/internal/gen"
	"plb/internal/xrand"
)

// TestHeavyIndexMatchesScratch is the property test for the
// incremental heavy index: after every step of a workload with random
// injections and transfers, HeavyIDs must equal the from-scratch
// classification {p : load(p) >= H} in ascending order.
func TestHeavyIndexMatchesScratch(t *testing.T) {
	const n = 512
	const H = 4
	m, err := New(Config{N: n, Model: gen.Single{P: 0.5, Eps: 0.2}, Seed: 9, Workers: 2, Sparse: true})
	if err != nil {
		t.Fatal(err)
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

		got := slices.Clone(m.HeavyIDs())
		var want []int32
		for p, l := range m.Snapshot() {
			if int(l) >= H {
				want = append(want, int32(p))
			}
		}
		// Snapshot's syncAll must not have perturbed the index; re-read
		// it after the sweep.
		if !slices.Equal(got, slices.Clone(m.HeavyIDs())) {
			t.Fatalf("step %d: HeavyIDs changed across a Snapshot", step)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: heavy index %v != scratch classification %v", step, got, want)
		}
	}
}
