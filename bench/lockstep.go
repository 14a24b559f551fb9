package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"plb/internal/cli"
	"plb/internal/engine"
	"plb/internal/policy"
	"plb/internal/sim"
	"plb/internal/task"
)

// lockstepSpec is a sim.Machine workload running the paper's bfm98
// balancer.
type lockstepSpec struct {
	n      int
	model  string // model name or workload grammar spec (cli.BuildWorkload)
	sparse bool
	warmup int // steps run during set-up, before the timed window
	check  int // further steps the check copy runs before its digest
	setups int // copies built; setup_s is the median, the first is the check copy, the last is measured
}

// traceBlock is the length of the alternating traced and untraced
// blocks of a traced run. For the fleets it is 400 ticks, a whole number
// of fleet-skew's 200-tick flash periods, so both kinds of block see the
// same arrivals.
const traceBlock = 400 * time.Millisecond

// buildMachine builds the workload's machine with one worker shard. The
// trajectory is bit-identical for every worker count; on a two-core
// shared host a two-shard step waits for the slower core at every
// barrier, which tripled the run-to-run spread of steps_per_s.
func buildMachine(spec lockstepSpec, seed uint64, t *tracer) (*sim.Machine, error) {
	mod, weigher, err := cli.BuildWorkload(spec.model, spec.n, seed)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{N: spec.n, Model: mod, Weigher: weigher, Seed: seed, Sparse: spec.sparse, Workers: 1}
	if err := cli.InstallPolicy(&cfg, "bfm98", policy.Params{N: spec.n, Seed: seed}); err != nil {
		return nil, err
	}
	if t != nil {
		cfg.Balancer = &tracedBalancer{inner: cfg.Balancer, t: t}
	}
	return sim.New(cfg)
}

// conserved checks Generated == Completed + TotalLoad.
func conserved(em engine.Metrics, when string) error {
	if em.Generated != em.Completed+em.TotalLoad {
		return checkFailed("lockstep.conservation",
			"%s: generated %d != completed %d + queued %d", when, em.Generated, em.Completed, em.TotalLoad)
	}
	return nil
}

// digest is the FNV-64a hash of the machine's loads and its Collect
// counters: it pins the whole trajectory up to the current step.
func digest(m *sim.Machine, em engine.Metrics) (string, error) {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range m.Snapshot() {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Write(b[:])
	}
	js, err := json.Marshal(em)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	h.Write(js)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// checkCopy runs the check copy on to its digest step and verifies
// conservation and, for seed 1, the pinned digest.
func checkCopy(m *sim.Machine, spec lockstepSpec, key string, rc runConfig, res *result) error {
	m.Run(spec.check)
	em := m.Collect()
	if err := conserved(em, "check copy"); err != nil {
		return err
	}
	res.Checks = append(res.Checks, "lockstep.conservation")
	if rc.seed != 1 {
		return nil
	}
	got, err := digest(m, em)
	if err != nil {
		return err
	}
	want, ok := rc.pins[key]
	if !ok {
		return checkFailed("lockstep.digest", "no digest pinned for %s (this run's is %s)", key, got)
	}
	if got != want {
		return checkFailed("lockstep.digest", "%s at step %d: digest %s, pinned %s", key, em.Steps, got, want)
	}
	res.Checks = append(res.Checks, "lockstep.digest")
	return nil
}

func runLockstep(name string, spec lockstepSpec, rc runConfig) (*result, error) {
	res := &result{Values: map[string]float64{}}
	var (
		m      *sim.Machine
		tr     *tracer
		setups []float64
	)
	for i := 0; i < spec.setups; i++ {
		var t *tracer
		if rc.traced {
			t = newTracer(0)
		}
		start := time.Now()
		mi, err := buildMachine(spec, rc.seed, t)
		if err != nil {
			return nil, err
		}
		mi.Run(spec.warmup)
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			if err := checkCopy(mi, spec, rc.pinKey(name), rc, res); err != nil {
				return nil, err
			}
		}
		if i < spec.setups-1 {
			runtime.GC() // drop this copy before building the next
			continue
		}
		m, tr = mi, t
	}

	em0 := m.Collect() // syncs a sparse machine; outside the window
	if err := conserved(em0, "window start"); err != nil {
		return nil, err
	}
	rec0 := m.Recorder()
	g0, cpu0 := sampleGo(), cpuTime()

	var (
		steps                      int64
		onStep, offStep, onN, offN int64
		onWall                     time.Duration
		blockOn                    bool
	)
	start := time.Now()
	deadline, blockEnd := start.Add(rc.window), start.Add(traceBlock)
	prev := start
	for prev.Before(deadline) {
		t0 := time.Now()
		if rc.traced {
			if t0.After(blockEnd) {
				blockOn, blockEnd = !blockOn, t0.Add(traceBlock)
			}
			tr.root(simStep, blockOn, true, m.Now())
		}
		m.Step()
		if rc.traced {
			tr.end()
		}
		t1 := time.Now()
		d := t1.Sub(t0)
		if blockOn {
			onStep, onN, onWall = onStep+int64(d), onN+1, onWall+t1.Sub(prev)
		} else {
			offStep, offN = offStep+int64(d), offN+1
		}
		prev = t1
		steps++
	}
	wall := prev.Sub(start)
	cpu1, g1 := cpuTime(), sampleGo()

	em1 := m.Collect()
	if err := conserved(em1, "window end"); err != nil {
		return nil, err
	}
	completed := em1.Completed - em0.Completed
	if completed <= 0 {
		return nil, checkFailed("lockstep.progress", "no task completed in %d steps", steps)
	}
	res.Attempted = steps

	v := res.Values
	msPerStep := ms(wall) / float64(steps)
	tasksPerStep := float64(completed) / float64(steps)
	v["setup_s"] = quantile(setups, 0.5)
	v["steps_per_s"] = float64(steps) / wall.Seconds()
	v["tasks_per_s"] = float64(completed) / wall.Seconds()
	v["cpu_us_per_task"] = float64(cpu1-cpu0) / float64(time.Microsecond) / float64(completed)

	// A dense machine records every task; the sparse engine keeps counts
	// only, so its mean wait comes from Little's law over the window.
	rec := recorderDelta(m.Recorder(), rec0)
	if spec.sparse {
		queued := float64(em0.TotalLoad+em1.TotalLoad) / 2
		v["task.sojourn_mean_ms"] = queued / tasksPerStep * msPerStep
	} else {
		v["task.sojourn_mean_ms"] = rec.MeanWait() * msPerStep
	}
	taskMetrics(v, &rec)

	v["loop.tick_period_ms"] = msPerStep
	if rc.traced {
		w := float64(onWall)
		v["loop.busy_share"] = float64(tr.total[simStep]) / w
		v["sim.self_share"] = float64(tr.self[simStep]) / w
		v["core.balancer_share"] = float64(tr.total[coreBalancer]) / w
		v["trace.overhead_share"] = (float64(onStep)/float64(max(onN, 1)))/(float64(offStep)/float64(max(offN, 1))) - 1
		if rc.spans != "" {
			if err := writeSpans(rc.spans, name, tr); err != nil {
				return nil, err
			}
		}
	}
	per := func(a, b int64) float64 { return float64(b-a) / float64(steps) }
	v["core.messages_per_step"] = per(em0.Messages, em1.Messages)
	v["core.balance_actions_per_step"] = per(em0.BalanceActions, em1.BalanceActions)
	v["core.tasks_moved_per_step"] = per(em0.TasksMoved, em1.TasksMoved)
	v["core.comm_rounds_per_step"] = per(em0.CommRounds, em1.CommRounds)
	v["sim.sparse_synced_per_step"] = per(em0.Extra["sparse_synced"], em1.Extra["sparse_synced"])
	v["sim.sparse_replayed_per_step"] = per(em0.Extra["sparse_replayed"], em1.Extra["sparse_replayed"])
	v["sim.max_load"] = float64(em1.MaxLoad)
	v["task.moved_per_task"] = float64(em1.TasksMoved-em0.TasksMoved) / float64(completed)
	goMetrics(v, g0, g1, steps, completed)
	v["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(m) // the machine must still be live when the heap is read
	return res, nil
}

// recorderDelta is the task accounting of the completions between two
// cumulative snapshots.
func recorderDelta(b, a task.Recorder) task.Recorder {
	d := task.Recorder{
		Completed: b.Completed - a.Completed, OnOrigin: b.OnOrigin - a.OnOrigin,
		SumWait: b.SumWait - a.SumWait, SumHops: b.SumHops - a.SumHops, MaxWait: b.MaxWait,
	}
	for i := range d.WaitHist {
		d.WaitHist[i] = b.WaitHist[i] - a.WaitHist[i]
	}
	return d
}
