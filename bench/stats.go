package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"plb/internal/task"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place; an empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// tailQuantile is the highest percentile of xs with at least ten
// samples beyond it (capped at p99.9), returned as (value, percentile).
func tailQuantile(xs []float64) (float64, float64) {
	if len(xs) < 20 {
		return quantile(xs, 0.5), 50
	}
	pct := math.Min(99.9, 100*(1-10/float64(len(xs))))
	return quantile(xs, pct/100), pct
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the benchmark's spread is judged.
// It needs at least two values; xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// pow2Quantile reads the q-quantile of a task.Recorder wait histogram
// (bucket 0 holds waits {0, 1}, bucket i >= 1 holds [2^i, 2^(i+1))),
// interpolating linearly inside the bucket the quantile lands in. It is
// an estimate: the histogram keeps no finer position.
func pow2Quantile(hist []int64, q float64) float64 {
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen int64
	for i, c := range hist {
		if c == 0 || float64(seen+c) < target {
			seen += c
			continue
		}
		lo, hi := 0.0, 2.0
		if i > 0 {
			lo, hi = math.Ldexp(1, i), math.Ldexp(1, i+1)
		}
		return lo + (hi-lo)*(target-float64(seen))/float64(c)
	}
	return math.Ldexp(1, len(hist))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// heapLiveMB is the live Go heap after a full collection, in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// goSample is a snapshot of the Go runtime's allocation and GC
// accounting, taken at the edges of a measured window.
type goSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func sampleGo() goSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goSample{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64(),
	}
}

// goMetrics fills the go.* per-layer values for the window [a, b] that
// ran the given steps (machine steps or fleet ticks) and completed tasks.
func goMetrics(v map[string]float64, a, b goSample, steps, tasks int64) {
	allocs := float64(b.mallocs - a.mallocs)
	v["go.allocs_per_step"] = allocs / float64(max(steps, 1))
	v["go.alloc_bytes_per_step"] = float64(b.bytes-a.bytes) / float64(max(steps, 1))
	v["go.allocs_per_task"] = allocs / float64(max(tasks, 1))
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		v["go.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
	} else {
		v["go.gc_cpu_share"] = 0
	}
}

// taskMetrics fills the task.* values from per-task accounting; all
// read 0 where the engine keeps no task identity (the sparse engine).
func taskMetrics(v map[string]float64, rec *task.Recorder) {
	v["task.locality"] = rec.LocalityFraction()
	v["task.mean_hops"] = rec.MeanHops()
	v["task.wait_p99_steps"] = pow2Quantile(rec.WaitHist[:], 0.99)
}

// loadgenMetrics fills the loadgen.* harness-health values of a fleet
// run: how late the generator sent each tick after it was due, and the
// accept-latency tail with its sample count.
func loadgenMetrics(v map[string]float64, accept, late []float64, resentShare float64) {
	v["loadgen.late_p50_ms"] = quantile(late, 0.50)
	v["loadgen.late_p99_ms"] = quantile(late, 0.99)
	tail, pct := tailQuantile(accept)
	v["loadgen.accept_tail_ms"] = tail
	v["loadgen.accept_tail_pct"] = pct
	v["loadgen.accept_samples"] = float64(len(accept))
	v["loadgen.resent_share"] = resentShare
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
