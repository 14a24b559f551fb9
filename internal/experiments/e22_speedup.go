package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"plb/internal/sim"
)

func init() {
	register(Experiment{
		ID:         "E22",
		Title:      "Self-speedup vs worker count",
		PaperClaim: "beyond the paper (its parallelism is the simulated machine's): the simulator's sharded passes, the generate/consume sweep and the sparse engine's catch-up sync, should scale with host cores while producing a bit-identical trajectory at every worker count",
		Run:        runE22,
	})
}

// e22Digest summarizes a machine's end state: FNV-64a over the final
// load snapshot. Trajectory equality across worker counts is pinned by
// the golden tests at every step; here the end state certifies the
// timed runs really computed the same thing.
func e22Digest(m *sim.Machine) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for _, l := range m.Snapshot() {
		buf[0] = byte(l)
		buf[1] = byte(l >> 8)
		buf[2] = byte(l >> 16)
		buf[3] = byte(l >> 24)
		h.Write(buf)
	}
	return h.Sum64()
}

func runE22(cfg RunConfig) (*Result, error) {
	n := pick(cfg, 1<<14, 1<<17)
	steps := pick(cfg, 64, 256)
	workerSweep := []int{1, 2, 4, 8}

	res := &Result{
		ID:         "E22",
		Title:      "Self-speedup vs worker count",
		PaperClaim: "worker count is a pure accelerator of the generate/consume sweep and the sparse sync: identical trajectory, wall clock ideally scaling toward the host's core count",
		Columns:    []string{"workers", "steps/s", "speedup vs 1", "digest"},
	}

	var base, window float64
	var refDigest uint64
	best, bestW := 0.0, 0
	for _, w := range workerSweep {
		m, _, err := ours(n, singleModel(), cfg.Seed+22, w, nil)
		if err != nil {
			return nil, err
		}
		m.Inject(0, n/4)
		m.Steps(16) // warm up: first phases, pool spin-up
		start := time.Now()
		m.Steps(steps)
		elapsed := time.Since(start).Seconds()
		window = max(window, elapsed)
		rate := float64(steps) / elapsed
		d := e22Digest(m)
		if w == workerSweep[0] {
			base = rate
			refDigest = d
		}
		if rate/base > best {
			best, bestW = rate/base, w
		}
		if d != refDigest {
			return nil, fmt.Errorf("e22: workers=%d end-state digest %016x != workers=1 digest %016x (determinism broken)", w, d, refDigest)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", w),
			fmtF(rate),
			fmtF(rate / base),
			fmt.Sprintf("%016x", d),
		})
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("n=%s, %d timed steps after 16 warm-up steps, Single(0.4,0.1), n/4 tasks pre-injected on processor 0", fmtN(n), steps),
		fmt.Sprintf("host GOMAXPROCS=%d — speedup saturates at the smaller of the worker count and the host's cores, and is ~1.0 throughout on a single-core host", runtime.GOMAXPROCS(0)),
		"identical digests are asserted, not just reported: the run fails if any worker count diverges")
	res.Verdict = fmt.Sprintf("trajectories are bit-identical across worker counts %v (digest %016x at each, asserted); %s",
		workerSweep, refDigest, e22Speedup(cfg.Quick, window, best, bestW))
	return res, nil
}

// e22Speedup states what the timed rows resolve: nothing at quick
// scale, whose windows are too short to separate a speedup from host
// noise (runs on one host read 0.74–1.14 for the same rows), and
// otherwise the best speedup over one worker and where it occurred.
func e22Speedup(quick bool, window, best float64, bestW int) string {
	procs := runtime.GOMAXPROCS(0)
	switch {
	case quick:
		return fmt.Sprintf("speedup unresolved: -quick times each worker count for at most %.2f s, too short to tell a speedup from host noise; run at full scale to measure it", window)
	case bestW == 1:
		return fmt.Sprintf("no worker count ran faster than 1 worker (GOMAXPROCS=%d)", procs)
	}
	return fmt.Sprintf("best speedup %.2fx with %d workers (GOMAXPROCS=%d)", best, bestW, procs)
}
