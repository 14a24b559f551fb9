package engine

import "testing"

// fakeRunner counts Steps calls for cadence assertions.
type fakeRunner struct {
	now     int64
	batches []int
	loads   []int32
}

func (f *fakeRunner) Meta() Meta { return Meta{Backend: "fake", Algorithm: "none", N: len(f.loads)} }
func (f *fakeRunner) Now() int64 { return f.now }
func (f *fakeRunner) Steps(k int) {
	if k <= 0 {
		return
	}
	f.now += int64(k)
	f.batches = append(f.batches, k)
}
func (f *fakeRunner) Loads() []int32 { return f.loads }
func (f *fakeRunner) Collect() Metrics {
	return Metrics{Steps: f.now, MaxLoad: f.now % 7, Messages: 3 * f.now}
}

func TestDriveValidates(t *testing.T) {
	if _, err := Drive(nil, DriveConfig{Steps: 1}); err == nil {
		t.Fatal("nil runner accepted")
	}
	if _, err := Drive(&fakeRunner{}, DriveConfig{Steps: 0}); err == nil {
		t.Fatal("steps=0 accepted")
	}
	if _, err := Drive(&fakeRunner{}, DriveConfig{Steps: 5, Warmup: -1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestDriveCadence(t *testing.T) {
	f := &fakeRunner{}
	rep, err := Drive(f, DriveConfig{Steps: 100, Warmup: 30, SampleEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Warmup first, then 40-step chunks with a partial 20-step tail.
	want := []int{30, 40, 40, 20}
	if len(f.batches) != len(want) {
		t.Fatalf("batches = %v, want %v", f.batches, want)
	}
	for i, b := range want {
		if f.batches[i] != b {
			t.Fatalf("batches = %v, want %v", f.batches, want)
		}
	}
	if rep.Samples != 3 {
		t.Fatalf("samples = %d, want 3", rep.Samples)
	}
	if rep.Final.Steps != 130 {
		t.Fatalf("final steps = %d, want 130", rep.Final.Steps)
	}
}

func TestDriveDefaultsToSingleEndSample(t *testing.T) {
	f := &fakeRunner{}
	rep, err := Drive(f, DriveConfig{Steps: 17})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1 || rep.Final.Steps != 17 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestDriveObserversAndAggregates(t *testing.T) {
	f := &fakeRunner{}
	var steps []int64
	rep, err := Drive(f, DriveConfig{
		Steps: 30, SampleEvery: 10,
		Observers: []Observer{ObserverFunc(func(_ Runner, m Metrics) {
			steps = append(steps, m.Steps)
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0] != 10 || steps[2] != 30 {
		t.Fatalf("observed steps = %v", steps)
	}
	// MaxLoad samples are 10%7=3, 20%7=6, 30%7=2.
	if rep.PeakMaxLoad != 6 {
		t.Fatalf("peak = %d, want 6", rep.PeakMaxLoad)
	}
	if want := (3.0 + 6.0 + 2.0) / 3.0; rep.MeanMaxLoad != want {
		t.Fatalf("mean = %v, want %v", rep.MeanMaxLoad, want)
	}
}

func TestDriveStopCondition(t *testing.T) {
	f := &fakeRunner{}
	rep, err := Drive(f, DriveConfig{
		Steps: 1000, SampleEvery: 10,
		StopWhen: func(m Metrics) bool { return m.Steps >= 30 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stopped {
		t.Fatal("stop condition did not fire")
	}
	if rep.Final.Steps != 30 || rep.Samples != 3 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestMetricsAddExtra(t *testing.T) {
	var m Metrics
	m.AddExtra("x", 2)
	m.AddExtra("x", 3)
	if m.Extra["x"] != 5 {
		t.Fatalf("extra = %v", m.Extra)
	}
}
