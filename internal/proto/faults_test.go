package proto

import (
	"fmt"
	"testing"

	"plb/internal/core"
	"plb/internal/faults"
	"plb/internal/gen"
	"plb/internal/sim"
)

// TestGoldenFaultFreeUnchanged pins the fault-free behaviour to the
// exact trajectories and metrics the implementation produced before the
// fault-injection substrate existed (captured from the seed revision).
// The fault hooks must be a zero-cost abstraction: with Faults nil the
// balancers are byte-identical to the pre-fault code, so any drift here
// means a hook leaked into the fault-free path.
func TestGoldenFaultFreeUnchanged(t *testing.T) {
	t.Run("proto", func(t *testing.T) {
		n := 128
		cfg := DefaultConfig(n)
		b, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: 9, Balancer: b})
		if err != nil {
			t.Fatal(err)
		}
		m.Inject(3, cfg.HeavyThreshold*2)
		var traj []int
		for i := 0; i < 6; i++ {
			m.Run(cfg.PhaseLen)
			traj = append(traj, m.MaxLoad())
		}
		wantTraj := []int{143, 89, 85, 82, 81, 83}
		if fmt.Sprint(traj) != fmt.Sprint(wantTraj) {
			t.Fatalf("trajectory drifted from seed: got %v, want %v", traj, wantTraj)
		}
		want := sim.Metrics{Messages: 32, BalanceActions: 2, TasksMoved: 96, CommRounds: 30}
		if got := m.Metrics(); got != want {
			t.Fatalf("metrics drifted from seed: got %+v, want %+v", got, want)
		}
		if got := m.TotalLoad(); got != 385 {
			t.Fatalf("total load drifted from seed: got %d, want 385", got)
		}
	})
	t.Run("core", func(t *testing.T) {
		n := 256
		cfg := core.DefaultConfig(n)
		cfg.Seed = 17
		b, err := core.New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: 17, Balancer: b})
		if err != nil {
			t.Fatal(err)
		}
		m.Inject(0, cfg.HeavyThreshold*3)
		m.Inject(100, cfg.HeavyThreshold*2)
		var traj []int
		for i := 0; i < 6; i++ {
			m.Run(cfg.PhaseLen)
			traj = append(traj, m.MaxLoad())
		}
		wantTraj := []int{9, 7, 7, 6, 5, 3}
		if fmt.Sprint(traj) != fmt.Sprint(wantTraj) {
			t.Fatalf("trajectory drifted from seed: got %v, want %v", traj, wantTraj)
		}
		want := sim.Metrics{Messages: 221, BalanceActions: 15, TasksMoved: 30, CommRounds: 6}
		if got := m.Metrics(); got != want {
			t.Fatalf("metrics drifted from seed: got %+v, want %+v", got, want)
		}
		if got := m.TotalLoad(); got != 195 {
			t.Fatalf("total load drifted from seed: got %d, want 195", got)
		}
	})
}

// TestFaultFreeMetricsZero: a run without fault injection must report
// exactly zero Retries, Drops, and AbandonedPhases — those counters
// measure fault response, not normal protocol behaviour (fault-free
// runs re-query after collisions too, but that is the paper's cadence,
// not a retry against a fault).
func TestFaultFreeMetricsZero(t *testing.T) {
	n := 256
	cfg := DefaultConfig(n)
	var stats []core.PhaseStats
	cfg.OnPhase = func(ps core.PhaseStats) { stats = append(stats, ps) }
	m, _ := distMachine(t, n, cfg, 13)
	for p := 0; p < 6; p++ {
		m.Inject(p*40, cfg.HeavyThreshold*2)
	}
	m.Run(6 * cfg.PhaseLen)
	met := m.Metrics()
	if met.Messages == 0 || met.BalanceActions == 0 {
		t.Fatal("no protocol activity — test is vacuous")
	}
	if met.Retries != 0 || met.Drops != 0 || met.AbandonedPhases != 0 {
		t.Fatalf("fault-free run reported fault metrics: %+v", met)
	}
	for _, ps := range stats {
		if ps.Retries != 0 || ps.Released != 0 || ps.Abandoned != 0 || ps.LateMatched != 0 {
			t.Fatalf("fault-free phase reported fault stats: %+v", ps)
		}
	}
}

// TestLossyMaxLoadWithinTwiceFaultFree is the statistical regression
// gate: at n=1024 with 5%% uniform message loss, the hardened protocol
// must keep the max load within 2x the fault-free run (plus one
// phase's generation noise) at every one of 64 phase boundaries.
// Table-driven across three seeds; everything is seeded, so a pass is
// reproducible bit-for-bit.
func TestLossyMaxLoadWithinTwiceFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1024 x 64 phases x 2 runs x 3 seeds")
	}
	n := 1024
	run := func(seed uint64, plan *faults.Plan) []int {
		cfg := DefaultConfig(n)
		cfg.Faults = plan
		b, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: seed, Balancer: b})
		if err != nil {
			t.Fatal(err)
		}
		m.Inject(3, cfg.HeavyThreshold*4)
		m.Inject(700, cfg.HeavyThreshold*3)
		var traj []int
		for i := 0; i < 64; i++ {
			m.Run(cfg.PhaseLen)
			traj = append(traj, m.MaxLoad())
		}
		return traj
	}
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := faults.Lossy(0.05)
			free := run(seed, nil)
			lossy := run(seed, &plan)
			slack := DefaultConfig(n).LightThreshold
			for i := range free {
				if lossy[i] > 2*free[i]+slack {
					t.Fatalf("phase %d: lossy max %d exceeds 2x fault-free %d (+%d)",
						i, lossy[i], free[i], slack)
				}
			}
		})
	}
}

// TestCrashFreezesAndRecovers: a crashed processor's queue is frozen —
// it generates nothing, consumes nothing, and cannot shed load — and
// once the crash window closes it rejoins the protocol and balances
// its backlog away.
func TestCrashFreezesAndRecovers(t *testing.T) {
	n := 128
	cfg := DefaultConfig(n)
	crashUntil := int64(4 * cfg.PhaseLen)
	cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Proc: 3, At: 1, Recover: crashUntil}}}
	m, _ := distMachine(t, n, cfg, 9)
	pile := cfg.HeavyThreshold * 2
	m.Inject(3, pile)
	m.Run(2 * cfg.PhaseLen)
	if got := m.Load(3); got != pile {
		t.Fatalf("crashed processor's queue moved: %d, want frozen %d", got, pile)
	}
	m.Run(4 * cfg.PhaseLen) // recovery + phases to rejoin and balance
	if got := m.Load(3); got >= pile {
		t.Fatalf("recovered processor never shed its backlog: load %d", got)
	}
	if m.Metrics().BalanceActions == 0 {
		t.Fatal("no balancing after recovery")
	}
}

// TestBossCrashReleasesReservations: light processors reserved by a
// tree root whose processor then crashes must free their reservation
// (instead of being locked out of balancing for the rest of the
// phase), and the dead root's phase is counted as abandoned.
func TestBossCrashReleasesReservations(t *testing.T) {
	n := 64
	cfg := DefaultConfig(n)
	// Boss 0 opens its tree at offset 0, hears accepts by delivery
	// window 3, then dies mid-phase — well before the settle offset.
	cfg.Faults = &faults.Plan{Crashes: []faults.Crash{{Proc: 0, At: 4, Recover: 1 << 30}}}
	var released, abandoned int
	cfg.OnPhase = func(ps core.PhaseStats) {
		released += ps.Released
		abandoned += ps.Abandoned
	}
	m, _ := distMachine(t, n, cfg, 5)
	m.Inject(0, cfg.HeavyThreshold*2)
	m.Run(2*cfg.PhaseLen + 1) // one protocol phase + stats flush
	if released == 0 {
		t.Fatal("boss crash released no reservations")
	}
	if abandoned == 0 {
		t.Fatal("dead root's phase not counted as abandoned")
	}
	if m.Metrics().AbandonedPhases == 0 {
		t.Fatal("AbandonedPhases metric not rolled up")
	}
}

// TestRetriesCountedUnderLoss: with an active fault plan the hardened
// protocol's re-query volleys surface in the Retries metric.
func TestRetriesCountedUnderLoss(t *testing.T) {
	n := 256
	cfg := DefaultConfig(n)
	plan := faults.Lossy(0.3)
	cfg.Faults = &plan
	m, _ := distMachine(t, n, cfg, 23)
	for p := 0; p < 6; p++ {
		m.Inject(p*40, cfg.HeavyThreshold*2)
	}
	m.Run(6 * cfg.PhaseLen)
	met := m.Metrics()
	if met.Retries == 0 {
		t.Fatalf("30%% loss produced no retries: %+v", met)
	}
	if met.Drops == 0 {
		t.Fatalf("30%% loss produced no drop accounting: %+v", met)
	}
}

// TestMaxRetriesDerived: an active plan turns on the bounded-retry
// rule (Rounds+2); without faults the bound stays off.
func TestMaxRetriesDerived(t *testing.T) {
	cfg := DefaultConfig(128)
	plan := faults.Lossy(0.1)
	cfg.Faults = &plan
	b, err := New(128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.maxRetries != cfg.Rounds+2 {
		t.Fatalf("derived retry bound = %d, want %d", b.maxRetries, cfg.Rounds+2)
	}
	cfg.Faults = nil
	b, err = New(128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.maxRetries != 0 || b.inj != nil {
		t.Fatalf("fault-free balancer grew fault state: retries=%d inj=%v", b.maxRetries, b.inj)
	}
}

// TestRecoveryRedistributeScatters: with the redistribute policy a
// recovering processor's frozen queue is scattered across the machine
// instead of staying piled up.
func TestRecoveryRedistributeScatters(t *testing.T) {
	n := 128
	cfg := DefaultConfig(n)
	cfg.Faults = &faults.Plan{
		Crashes:      []faults.Crash{{Proc: 3, At: 1, Recover: int64(2 * cfg.PhaseLen)}},
		Redistribute: true,
	}
	m, _ := distMachine(t, n, cfg, 9)
	pile := cfg.HeavyThreshold * 2
	m.Inject(3, pile)
	m.Run(2*cfg.PhaseLen + 2) // through the recovery step
	// The scatter moves every queued task to random other processors in
	// one step — far faster than block transfers could.
	if got := m.Load(3); got >= pile/2 {
		t.Fatalf("redistribute left %d of %d tasks on the recovered processor", got, pile)
	}
	if m.Metrics().TasksMoved < int64(pile)/2 {
		t.Fatalf("scatter not reflected in TasksMoved: %+v", m.Metrics())
	}
}
