package sim

import (
	"hash/fnv"
	"testing"

	"plb/internal/gen"
)

// FuzzSparseEquivalence throws fuzzer-chosen configurations at the
// dense/sparse pair — machine size, worker count, workload parameters,
// injection pattern, a fault window and the heavy threshold (1..200,
// so thresholds past the wheel's 64-bucket cap lap it) — and requires
// bit-identical per-step load trajectories. The balancer is a minimal greedy mover
// driven through the public surface (Load/Transfer over the heavy
// index), so the fuzz also exercises mid-step sync and
// reclassification without depending on internal/core (which would be
// an import cycle from this package).
func FuzzSparseEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(1), uint8(40), uint8(20), uint8(16), false, uint8(2))
	f.Add(uint64(42), uint8(8), uint8(4), uint8(70), uint8(25), uint8(64), true, uint8(2))
	f.Add(uint64(7), uint8(7), uint8(2), uint8(55), uint8(10), uint8(3), true, uint8(2))
	f.Add(uint64(5), uint8(5), uint8(1), uint8(60), uint8(5), uint8(250), false, uint8(119))
	f.Fuzz(func(t *testing.T, seed uint64, logN, workers, p100, eps100, inject uint8, faulted bool, heavy uint8) {
		n := 1 << (4 + int(logN)%5) // 16..256
		w := 1 + int(workers)%8
		pg := 0.05 + float64(p100%80)/100
		eps := 0.01 + float64(eps100%15)/100
		h := 1 + int(heavy)%200
		if pg+eps >= 0.99 {
			eps = 0.98 - pg
		}
		build := func(sparse bool) *Machine {
			m, err := New(Config{N: n, Model: gen.Single{P: pg, Eps: eps},
				Seed: seed, Workers: w, Sparse: sparse})
			if err != nil {
				t.Fatal(err)
			}
			if faulted {
				m.SetDown(func(p int, now int64) bool { return p%13 == 1 && now%30 < 11 })
			}
			m.Inject(0, int(inject))
			if sparse {
				m.ConfigureHeavyIndex(h, false)
			}
			return m
		}
		digest := func(m *Machine) uint64 {
			h := fnv.New64a()
			buf := make([]byte, 4)
			for step := 0; step < 60; step++ {
				// A crude greedy balancer: drain the heaviest visible
				// processor toward a rotating target.
				if step%5 == 0 {
					src := 0
					for p := 1; p < n; p++ {
						if m.Load(p) > m.Load(src) {
							src = p
						}
					}
					m.Transfer(src, (src+step+1)%n, 2)
				}
				m.Step()
				for _, l := range m.Snapshot() {
					buf[0] = byte(l)
					buf[1] = byte(l >> 8)
					buf[2] = byte(l >> 16)
					buf[3] = byte(l >> 24)
					h.Write(buf)
				}
			}
			return h.Sum64()
		}
		if d, s := digest(build(false)), digest(build(true)); d != s {
			t.Fatalf("n=%d w=%d p=%.2f eps=%.2f faulted=%v H=%d: dense %016x != sparse %016x",
				n, w, pg, eps, faulted, h, d, s)
		}
	})
}
