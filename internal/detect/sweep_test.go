package detect

import (
	"fmt"
	"testing"

	"plb/internal/xrand"
)

// refDetector is the full-sweep detector the deadline skip must agree
// with: Tick visits every peer on every call.
type refDetector struct {
	cfg                                 Config
	lastHeard                           []int64
	state                               []State
	suspicions, readmissions, confirmed int64
}

func (d *refDetector) Heard(p int32, now int64) {
	if p < 0 || int(p) >= len(d.state) {
		return
	}
	if now > d.lastHeard[p] {
		d.lastHeard[p] = now
	}
	if d.state[p] != Alive {
		d.state[p] = Alive
		d.readmissions++
	}
}

func (d *refDetector) Tick(now int64) {
	for p := range d.state {
		silence := now - d.lastHeard[p]
		switch {
		case silence > d.cfg.DownAfter:
			if d.state[p] == Alive {
				d.suspicions++
			}
			if d.state[p] != Down {
				d.confirmed++
				d.state[p] = Down
			}
		case silence > d.cfg.SuspectAfter:
			if d.state[p] == Alive {
				d.suspicions++
				d.state[p] = Suspected
			}
		}
	}
}

// TestTickSkipMatchesFullSweep replays random Heard/Tick sequences —
// stale and out-of-range Heards, re-admission after Down, a clock that
// stalls or steps back — against the full-sweep reference and compares
// every verdict and counter after every call.
func TestTickSkipMatchesFullSweep(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		n := []int{1, 2, 5, 17, 64}[seed%5]
		suspect := int64(1 + seed%7)
		cfg := Config{SuspectAfter: suspect, DownAfter: suspect * int64(1+seed%4), HeartbeatEvery: 2, Seed: seed}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := mustNew(t, n, cfg)
			ref := &refDetector{cfg: cfg, lastHeard: make([]int64, n), state: make([]State, n)}
			ops := xrand.New(seed)
			now := int64(0)
			check := func(op string) {
				t.Helper()
				for p := int32(0); p < int32(n); p++ {
					if d.State(p) != ref.state[p] {
						t.Fatalf("after %s: peer %d is %v, reference %v", op, p, d.State(p), ref.state[p])
					}
				}
				if d.Suspicions() != ref.suspicions || d.Readmissions() != ref.readmissions || d.ConfirmedDown() != ref.confirmed {
					t.Fatalf("after %s: counters %d/%d/%d, reference %d/%d/%d", op,
						d.Suspicions(), d.Readmissions(), d.ConfirmedDown(),
						ref.suspicions, ref.readmissions, ref.confirmed)
				}
			}
			for i := 0; i < 2000; i++ {
				switch ops.Intn(6) {
				case 0, 1: // traffic, sometimes stale, sometimes from outside the fleet
					p := int32(ops.Intn(n+2)) - 1
					at := now - int64(ops.Intn(3))
					d.Heard(p, at)
					ref.Heard(p, at)
					check(fmt.Sprintf("Heard(%d, %d)", p, at))
				case 2: // the clock stalls
					d.Tick(now)
					ref.Tick(now)
					check(fmt.Sprintf("Tick(%d) again", now))
				case 3: // the clock steps back
					back := now - int64(ops.Intn(int(2*suspect)+1))
					d.Tick(back)
					ref.Tick(back)
					check(fmt.Sprintf("Tick(%d) back", back))
				default: // the clock advances, sometimes far past DownAfter
					now += 1 + int64(ops.Intn(int(cfg.DownAfter)))
					d.Tick(now)
					ref.Tick(now)
					check(fmt.Sprintf("Tick(%d)", now))
				}
			}
		})
	}
}

// TestSteadyTickAllocs pins a steady-state Tick to zero allocations.
func TestSteadyTickAllocs(t *testing.T) {
	d := mustNew(t, 128, testCfg)
	now := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		now++
		d.Heard(int32(now%128), now)
		d.Tick(now)
	}); a != 0 {
		t.Fatalf("Tick: %v allocs/op, want 0", a)
	}
}
