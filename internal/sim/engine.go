// Engine adapter: *Machine implements engine.Runner, so every tool
// that drives runs through engine.Drive (experiments, cmd/lbsim,
// cmd/sweep, internal/trace) handles the lockstep simulator — and,
// via the hooks below, the distributed proto balancer riding on it —
// with the same code that handles the node fleet.
package sim

import "plb/internal/engine"

// BackendNamer lets a Balancer rename the backend a Machine reports
// through engine.Runner.Meta (internal/proto reports "proto": the
// substrate is still the lockstep machine, but the algorithm runs as
// message-passing state machines over the in-memory bus).
type BackendNamer interface {
	BackendName() string
}

// MetricsExtender lets a Balancer contribute backend-specific
// extension counters to the unified engine.Metrics (e.g. proto's
// completed phases and matches).
type MetricsExtender interface {
	ExtendMetrics(m *engine.Metrics)
}

// Meta returns the run's identifying metadata (engine.Runner).
func (m *Machine) Meta() engine.Meta {
	backend := "sim"
	if bn, ok := m.bal.(BackendNamer); ok {
		backend = bn.BackendName()
	}
	return engine.Meta{
		Backend:   backend,
		Algorithm: m.BalancerName(),
		Model:     m.model.Name(),
		N:         m.n,
		Seed:      m.seed,
	}
}

// Steps advances the machine by k time steps (engine.Runner); it is
// Run under the interface's name.
func (m *Machine) Steps(k int) { m.Run(k) }

// Loads returns the live load vector (engine.Runner); it is Snapshot
// under the interface's name, with the same ownership rule.
func (m *Machine) Loads() []int32 { return m.Snapshot() }

// Collect assembles the unified engine.Metrics from the machine's
// cost counters, conservation totals, and current load state — tasks
// flow through the machine with full identity, so Collect also
// publishes the merged task-lifecycle summary (Metrics.Tasks). The
// installed balancer may extend it via MetricsExtender.
func (m *Machine) Collect() engine.Metrics {
	em := engine.Metrics{
		Steps:           m.now,
		MaxLoad:         int64(m.MaxLoad()),
		TotalLoad:       m.TotalLoad(),
		Generated:       m.Generated(),
		Messages:        m.metrics.Messages,
		BalanceActions:  m.metrics.BalanceActions,
		TasksMoved:      m.metrics.TasksMoved,
		CommRounds:      m.metrics.CommRounds,
		Retries:         m.metrics.Retries,
		Drops:           m.metrics.Drops,
		AbandonedPhases: m.metrics.AbandonedPhases,
	}
	if e := m.sparse; e != nil {
		// Counters, not tasks: completion comes from the replay
		// arithmetic (MaxLoad above already synced everyone, so the
		// conservation identity holds exactly) and there is no task
		// identity to summarize — Tasks stays nil.
		em.Completed = e.completedTotal()
		synced, replayed := m.SparseStats()
		em.AddExtra("sparse", 1)
		em.AddExtra("sparse_synced", synced)
		em.AddExtra("sparse_replayed", replayed)
	} else {
		rec := m.Recorder()
		em.Completed = rec.Completed
		sum := rec.Summary()
		em.Tasks = &sum
	}
	if ext, ok := m.bal.(MetricsExtender); ok {
		ext.ExtendMetrics(&em)
	}
	return em
}
