// Package trace records time series from any engine.Runner — the
// "figures" companion to the experiment tables: max/total load,
// message and movement counters sampled at a fixed cadence, written as
// CSV or JSON for plotting. Because it speaks the unified engine
// surface, the same Recorder plots the lockstep simulator, the
// distributed protocol and the node fleet.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"plb/internal/engine"
)

// Point is one sample of a runner's observable state.
type Point struct {
	// Step is the runner time of the sample.
	Step int64 `json:"step"`
	// MaxLoad and TotalLoad are the instantaneous load statistics.
	MaxLoad   int64 `json:"max_load"`
	TotalLoad int64 `json:"total_load"`
	// Messages, BalanceActions and TasksMoved are cumulative counters
	// at the sample time.
	Messages       int64 `json:"messages"`
	BalanceActions int64 `json:"balance_actions"`
	TasksMoved     int64 `json:"tasks_moved"`
	// Drops is the cumulative fault-injection loss counter (zero in
	// every fault-free run; omitted from the CSV for compatibility).
	Drops int64 `json:"drops,omitempty"`
	// MeanWait, P99Wait and MaxWait are the cumulative task sojourn
	// statistics at the sample time, present for backends that publish
	// Metrics.Tasks (sim, proto, the node fleet) and zero/omitted
	// elsewhere.
	// Like Drops they stay out of the CSV for compatibility.
	MeanWait float64 `json:"mean_wait,omitempty"`
	P99Wait  int64   `json:"p99_wait,omitempty"`
	MaxWait  int64   `json:"max_wait,omitempty"`
}

// pointOf projects the unified metrics onto a Point.
func pointOf(m engine.Metrics) Point {
	p := Point{
		Step:           m.Steps,
		MaxLoad:        m.MaxLoad,
		TotalLoad:      m.TotalLoad,
		Messages:       m.Messages,
		BalanceActions: m.BalanceActions,
		TasksMoved:     m.TasksMoved,
		Drops:          m.Drops,
	}
	if m.Tasks != nil {
		p.MeanWait = m.Tasks.MeanWait
		p.P99Wait = m.Tasks.P99Wait
		p.MaxWait = m.Tasks.MaxWait
	}
	return p
}

// Recorder samples a runner at a fixed cadence. It implements
// engine.Observer, so it can ride an engine.Drive as one of the
// observers; Run remains the standalone entry point.
type Recorder struct {
	every  int
	meta   engine.Meta
	got    bool
	points []Point
}

// NewRecorder samples every `every` steps (minimum 1).
func NewRecorder(every int) *Recorder {
	if every < 1 {
		every = 1
	}
	return &Recorder{every: every}
}

// Run advances r by steps steps, sampling along the way (and once at
// the end if the last segment is partial). It is a thin wrap of
// engine.Drive with the recorder as the only observer.
func (r *Recorder) Run(run engine.Runner, steps int) {
	if _, err := engine.Drive(run, engine.DriveConfig{
		Steps:       steps,
		SampleEvery: r.every,
		Observers:   []engine.Observer{r},
	}); err != nil {
		// The only failure modes are configuration errors (steps < 1);
		// keep the legacy tolerant no-op behaviour.
		return
	}
}

// Observe implements engine.Observer.
func (r *Recorder) Observe(run engine.Runner, m engine.Metrics) {
	if !r.got {
		r.meta = run.Meta()
		r.got = true
	}
	r.points = append(r.points, pointOf(m))
}

// Sample records the runner's current state outside a drive.
func (r *Recorder) Sample(run engine.Runner) { r.Observe(run, run.Collect()) }

// Points returns the recorded samples.
func (r *Recorder) Points() []Point { return r.points }

// Meta returns the metadata of the recorded runner (zero until the
// first sample).
func (r *Recorder) Meta() engine.Meta { return r.meta }

// PeakMaxLoad returns the largest sampled max load (0 if no samples).
func (r *Recorder) PeakMaxLoad() int {
	peak := int64(0)
	for _, p := range r.points {
		if p.MaxLoad > peak {
			peak = p.MaxLoad
		}
	}
	return int(peak)
}

// WriteCSV writes the series with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "step,max_load,total_load,messages,balance_actions,tasks_moved"); err != nil {
		return err
	}
	for _, p := range r.points {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d\n",
			p.Step, p.MaxLoad, p.TotalLoad, p.Messages, p.BalanceActions, p.TasksMoved); err != nil {
			return err
		}
	}
	return nil
}

// Series is the JSON shape of a recorded trace.
type Series struct {
	Meta   engine.Meta `json:"meta"`
	Points []Point     `json:"points"`
}

// WriteJSON writes the series (with the runner metadata) as indented
// JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Series{Meta: r.meta, Points: r.points})
}
