// Package engine is the unified measurement layer over the repo's
// substrates: the lockstep simulator (internal/sim, with the atomic and
// distributed balancers on top), the fleet of message-passing node
// runtimes (internal/node, over sockets or the in-memory network).
//
// Each substrate grew its own run loop, metrics struct, and ad-hoc
// wiring; engine collapses them behind one Runner interface with one
// observable surface (Metrics), so experiments, CLI tools, and the
// trace recorder drive every backend through the same code path and
// cross-backend tables are apples-to-apples.
//
// The contract:
//
//   - Runner.Steps advances the backend by whole time steps. Lockstep
//     backends (sim, proto-on-sim) and the node fleet on the
//     in-memory network are bit-reproducible for a fixed seed
//     regardless of how the steps are batched; a fleet over sockets is
//     genuinely concurrent and only statistically reproducible.
//   - Runner.Loads returns a point-in-time per-processor (or
//     per-module) load snapshot owned by the runner, valid until the
//     next Steps or Loads call.
//   - Runner.Collect returns cumulative counters plus instantaneous
//     load statistics in the unified Metrics struct; backend-specific
//     counters ride in Metrics.Extra.
//
// Drive is the single entry point replacing the per-caller warmup /
// sample / stop loops: it steps a Runner at a sampling cadence,
// notifies Observers at each sample, evaluates a stop condition, and
// returns an aggregate Report.
package engine

import (
	"fmt"

	"plb/internal/task"
)

// Meta identifies a run: which backend, which algorithm, which
// workload, at what size and seed.
type Meta struct {
	// Backend names the substrate: "sim", "proto", "sockets", "mem".
	Backend string `json:"backend"`
	// Algorithm names the balancing algorithm.
	Algorithm string `json:"algorithm"`
	// Model names the workload generation model.
	Model string `json:"model"`
	// N is the number of processors.
	N int `json:"n"`
	// Seed is the master random seed of the run.
	Seed uint64 `json:"seed"`
}

// Metrics is the unified observable surface of a Runner. Steps,
// Generated, Completed and every cost counter are cumulative
// (monotone non-decreasing over a run); MaxLoad and TotalLoad are
// instantaneous.
type Metrics struct {
	// Steps is the number of time steps executed so far.
	Steps int64 `json:"steps"`
	// MaxLoad and TotalLoad are the load statistics at collection time.
	MaxLoad   int64 `json:"max_load"`
	TotalLoad int64 `json:"total_load"`
	// Generated and Completed count tasks over the whole run. Backends that conserve tasks maintain
	// Generated == Completed + TotalLoad.
	Generated int64 `json:"generated"`
	Completed int64 `json:"completed"`
	// Messages counts point-to-point protocol messages.
	Messages int64 `json:"messages"`
	// BalanceActions counts completed partner agreements.
	BalanceActions int64 `json:"balance_actions"`
	// TasksMoved counts individual tasks moved between processors.
	TasksMoved int64 `json:"tasks_moved"`
	// CommRounds counts synchronous communication rounds.
	CommRounds int64 `json:"comm_rounds"`
	// Retries, Drops and AbandonedPhases are the fault-injection
	// counters; all zero in every fault-free run.
	Retries         int64 `json:"retries"`
	Drops           int64 `json:"drops"`
	AbandonedPhases int64 `json:"abandoned_phases"`
	// Extra carries backend-specific extension counters (e.g. proto's
	// "phases" and "matched", the node fleet's "sent_*" family).
	// Faulted proto runs add the link counters (net_*),
	// the failure-detector family (det_suspicions,
	// det_false_suspicions, det_readmissions, det_detections,
	// det_latency_sum, det_missed_windows, hb_sent) and the
	// acknowledged-transfer family (xfer_acked, xfer_retries,
	// xfer_requeued, xfer_dup_dropped); see docs/ENGINE.md. May be nil.
	Extra map[string]int64 `json:"extra,omitempty"`
	// Tasks is the task-lifecycle summary (sojourn-time quantiles,
	// locality, hops) for backends whose unit of work carries identity
	// end to end: sim, proto-on-sim, and the node fleet populate it; it
	// is nil where the unit of work has no per-task trajectory (the
	// sparse sim engine's load counters). A non-nil Summary with Completed == 0 means the
	// backend tracks tasks but none finished yet. Like the counters it
	// is cumulative over the run.
	Tasks *task.Summary `json:"tasks,omitempty"`
}

// AddExtra increments an extension counter, allocating the map on
// first use.
func (m *Metrics) AddExtra(key string, v int64) {
	if m.Extra == nil {
		m.Extra = make(map[string]int64)
	}
	m.Extra[key] += v
}

// Runner is a steppable backend with the unified observable surface.
// *sim.Machine (plain, or carrying the distributed proto balancer),
// and *node.Fleet implement it.
type Runner interface {
	// Meta returns the run's identifying metadata.
	Meta() Meta
	// Now returns the current step count.
	Now() int64
	// Steps advances the backend by k time steps (k <= 0 is a no-op).
	Steps(k int)
	// Loads returns the per-processor load vector. The slice is owned
	// by the runner and callers must not modify it. A lockstep machine
	// returns its live vector, which follows every load change; a
	// fleet refills a buffer that holds until the next Steps or Loads
	// call. Copy it to keep a past state.
	Loads() []int32
	// Collect returns the unified metrics at the current step.
	Collect() Metrics
}

// Observer receives a metrics sample at every drive cadence point.
type Observer interface {
	Observe(r Runner, m Metrics)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(r Runner, m Metrics)

// Observe calls f.
func (f ObserverFunc) Observe(r Runner, m Metrics) { f(r, m) }

// DriveConfig parameterizes Drive.
type DriveConfig struct {
	// Steps is the number of sampled steps to run (required >= 1).
	Steps int
	// Warmup steps run before sampling starts (not sampled, not
	// counted in Steps).
	Warmup int
	// SampleEvery is the sampling cadence in steps; <= 0 means a
	// single sample at the end.
	SampleEvery int
	// Observers are notified at every sample, in order.
	Observers []Observer
	// StopWhen, if non-nil, is evaluated at every sample; when it
	// reports true the drive ends early (Report.Stopped is set).
	StopWhen func(m Metrics) bool
}

// Report aggregates a drive.
type Report struct {
	// Meta is the runner's metadata.
	Meta Meta `json:"meta"`
	// Final is the metrics snapshot after the last step.
	Final Metrics `json:"final"`
	// Samples is the number of cadence samples taken.
	Samples int `json:"samples"`
	// PeakMaxLoad is the largest sampled MaxLoad; MeanMaxLoad is the
	// mean over samples (0 with no samples).
	PeakMaxLoad int64   `json:"peak_max_load"`
	MeanMaxLoad float64 `json:"mean_max_load"`
	// Stopped reports whether StopWhen ended the drive early.
	Stopped bool `json:"stopped"`
}

// Drive is the single run loop over any backend: warm up, then step at
// the sampling cadence, notifying observers and honoring the stop
// condition. The step batching is a pure function of the configuration
// (warmup first, then SampleEvery-sized chunks with a partial tail),
// so a deterministic runner driven twice with the same DriveConfig
// produces bit-identical trajectories.
func Drive(r Runner, cfg DriveConfig) (Report, error) {
	if r == nil {
		return Report{}, fmt.Errorf("engine: nil runner")
	}
	if cfg.Steps < 1 {
		return Report{}, fmt.Errorf("engine: DriveConfig.Steps must be >= 1, got %d", cfg.Steps)
	}
	if cfg.Warmup < 0 {
		return Report{}, fmt.Errorf("engine: negative warmup %d", cfg.Warmup)
	}
	every := cfg.SampleEvery
	if every <= 0 {
		every = cfg.Steps
	}
	rep := Report{Meta: r.Meta()}
	r.Steps(cfg.Warmup)
	var meanAcc float64
	done := 0
	for done < cfg.Steps {
		chunk := every
		if rest := cfg.Steps - done; chunk > rest {
			chunk = rest
		}
		r.Steps(chunk)
		done += chunk
		m := r.Collect()
		rep.Final = m
		rep.Samples++
		if m.MaxLoad > rep.PeakMaxLoad {
			rep.PeakMaxLoad = m.MaxLoad
		}
		meanAcc += float64(m.MaxLoad)
		for _, o := range cfg.Observers {
			o.Observe(r, m)
		}
		if cfg.StopWhen != nil && cfg.StopWhen(m) {
			rep.Stopped = true
			break
		}
	}
	if rep.Samples > 0 {
		rep.MeanMaxLoad = meanAcc / float64(rep.Samples)
	}
	return rep, nil
}
