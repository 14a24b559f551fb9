package proto

import (
	"testing"

	"plb/internal/collision"
	"plb/internal/core"
	"plb/internal/faults"
	"plb/internal/gen"
	"plb/internal/sim"
	"plb/internal/transport"
	"plb/internal/transport/membus"
)

func TestScheduleLen(t *testing.T) {
	if got := ScheduleLen(1, 6); got != 14 {
		t.Fatalf("ScheduleLen(1,6) = %d, want 14", got)
	}
	if got := ScheduleLen(2, 3); got != 15 {
		t.Fatalf("ScheduleLen(2,3) = %d, want 15", got)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	for _, n := range []int{64, 1024, 1 << 16} {
		cfg := DefaultConfig(n)
		if err := cfg.Validate(n); err != nil {
			t.Fatalf("DefaultConfig(%d) invalid: %v", n, err)
		}
		if cfg.PhaseLen < ScheduleLen(cfg.Levels, cfg.Rounds) {
			t.Fatalf("phase %d shorter than schedule", cfg.PhaseLen)
		}
		// Threshold ratios preserved: heavy = 8*phase, light = phase,
		// transfer = 4*phase (T = 16*phase).
		if cfg.HeavyThreshold != 8*cfg.PhaseLen || cfg.LightThreshold != cfg.PhaseLen {
			t.Fatalf("threshold ratios wrong: %+v", cfg)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	good := DefaultConfig(1024)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"inverted thresholds", func(c *Config) { c.HeavyThreshold = c.LightThreshold }},
		{"zero transfer", func(c *Config) { c.TransferAmount = 0 }},
		{"transfer exceeds heavy", func(c *Config) { c.TransferAmount = c.HeavyThreshold + 1 }},
		{"phase too short", func(c *Config) { c.PhaseLen = ScheduleLen(c.Levels, c.Rounds) - 1 }},
		{"zero levels", func(c *Config) { c.Levels = 0 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"bad collision", func(c *Config) { c.Collision = collision.Params{A: 3, B: 2, C: 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if err := cfg.Validate(1024); err == nil {
				t.Fatalf("invalid config accepted: %+v", cfg)
			}
		})
	}
}

// distMachine builds a machine with the distributed balancer.
func distMachine(t *testing.T, n int, cfg Config, seed uint64) (*sim.Machine, *Balancer) {
	t.Helper()
	b, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: seed, Balancer: b})
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

func TestHotProcessorBalancedOverOnePhase(t *testing.T) {
	n := 256
	cfg := DefaultConfig(n)
	var phases []core.PhaseStats
	cfg.OnPhase = func(ps core.PhaseStats) { phases = append(phases, ps) }
	m, _ := distMachine(t, n, cfg, 42)
	m.Inject(0, cfg.HeavyThreshold*2)
	before := m.Load(0)
	// Two full phases: one to run the protocol and settle, the next to
	// publish the stats.
	m.Run(2*cfg.PhaseLen + 1)
	if len(phases) == 0 {
		t.Fatal("no phase stats published")
	}
	first := phases[0]
	if first.Heavy != 1 {
		t.Fatalf("heavy = %d, want 1", first.Heavy)
	}
	if first.Matched != 1 {
		t.Fatalf("hot processor unmatched: %+v", first)
	}
	if first.Transferred != int64(cfg.TransferAmount) {
		t.Fatalf("transferred = %d, want %d", first.Transferred, cfg.TransferAmount)
	}
	after := m.Load(0)
	if before-after < cfg.TransferAmount/2 {
		t.Fatalf("hot processor load went %d -> %d", before, after)
	}
}

func TestTransferArrivesAtLightProcessor(t *testing.T) {
	n := 128
	cfg := DefaultConfig(n)
	m, _ := distMachine(t, n, cfg, 7)
	m.Inject(5, cfg.HeavyThreshold+cfg.TransferAmount)
	m.Run(cfg.PhaseLen + 1)
	// Exactly one other processor should hold >= TransferAmount -
	// phaseLen tasks (its own traffic is ~0.5/step noise).
	receivers := 0
	for p := 0; p < n; p++ {
		if p == 5 {
			continue
		}
		if m.Load(p) >= cfg.TransferAmount-cfg.PhaseLen {
			receivers++
		}
	}
	if receivers != 1 {
		t.Fatalf("transfer receivers = %d, want 1", receivers)
	}
}

func TestMessagesOnlyWhenHeavy(t *testing.T) {
	n := 128
	cfg := DefaultConfig(n)
	m, _ := distMachine(t, n, cfg, 9)
	// Single(0.4, 0.1) steady state is ~1.3 tasks/processor, far below
	// heavy = 8 * phase; no balancing traffic should appear.
	m.Run(5 * cfg.PhaseLen)
	if msgs := m.Metrics().Messages; msgs != 0 {
		t.Fatalf("idle system sent %d messages", msgs)
	}
}

func TestNoDuplicatePartnerWithinPhase(t *testing.T) {
	n := 256
	cfg := DefaultConfig(n)
	m, _ := distMachine(t, n, cfg, 11)
	// Several heavy processors at once.
	for p := 0; p < 6; p++ {
		m.Inject(p*40, cfg.HeavyThreshold*2)
	}
	m.Run(cfg.PhaseLen + 1)
	// Each successful transfer lands TransferAmount tasks on a light
	// processor; partners must be distinct, so the number of receivers
	// holding a near-block quantity equals BalanceActions.
	met := m.Metrics()
	if met.BalanceActions == 0 {
		t.Fatal("no balancing happened")
	}
	receivers := 0
	for p := 0; p < n; p++ {
		if p%40 == 0 && p < 240 {
			continue
		}
		if m.Load(p) >= cfg.TransferAmount-cfg.PhaseLen {
			receivers++
		}
	}
	if int64(receivers) != met.BalanceActions {
		t.Fatalf("receivers %d != balance actions %d (partner reused?)", receivers, met.BalanceActions)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (int, sim.Metrics) {
		n := 128
		cfg := DefaultConfig(n)
		m, _ := distMachine(t, n, cfg, 21)
		m.Inject(3, cfg.HeavyThreshold*3)
		m.Run(4 * cfg.PhaseLen)
		return m.MaxLoad(), m.Metrics()
	}
	max1, met1 := run()
	max2, met2 := run()
	if max1 != max2 || met1 != met2 {
		t.Fatalf("same-seed runs diverged: %d/%+v vs %d/%+v", max1, met1, max2, met2)
	}
}

func TestSustainedPressureStaysBounded(t *testing.T) {
	// Under a persistent burst adversary the distributed balancer must
	// keep the max load near the heavy threshold, like the atomic one.
	n := 256
	cfg := DefaultConfig(n)
	adv, err := gen.NewAdversarial(
		gen.Burst{Targets: 4, Amount: cfg.HeavyThreshold + cfg.TransferAmount, Window: 2 * cfg.PhaseLen},
		cfg.PhaseLen, 4*cfg.HeavyThreshold, int64(8*n*cfg.PhaseLen), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: adv, Seed: 5, Balancer: b})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	for i := 0; i < 40; i++ {
		m.Run(2 * cfg.PhaseLen)
		if l := m.MaxLoad(); l > worst {
			worst = l
		}
	}
	// A burst lands heavy+transfer tasks; one phase later a block
	// leaves. Bound: burst pile + a phase of drift, times slack.
	limit := 3 * (cfg.HeavyThreshold + cfg.TransferAmount)
	if worst > limit {
		t.Fatalf("max load %d exceeded %d under sustained bursts", worst, limit)
	}
	phases, matched := b.Totals()
	if phases == 0 || matched == 0 {
		t.Fatalf("balancer idle under pressure: phases=%d matched=%d", phases, matched)
	}
}

func TestInitPanicsOnWrongN(t *testing.T) {
	b, err := New(64, DefaultConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: 32, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Init with wrong n did not panic")
		}
	}()
	b.Init(m)
}

func TestMultiLevelSchedule(t *testing.T) {
	// Levels=2 exercises the forward/retry hand-off path.
	n := 256
	cfg := DefaultConfig(n)
	cfg.Levels = 2
	cfg.PhaseLen = ScheduleLen(cfg.Levels, cfg.Rounds)
	cfg.HeavyThreshold = 8 * cfg.PhaseLen
	cfg.LightThreshold = cfg.PhaseLen
	cfg.TransferAmount = 4 * cfg.PhaseLen
	m, _ := distMachine(t, n, cfg, 31)
	m.Inject(9, cfg.HeavyThreshold*2)
	m.Run(cfg.PhaseLen + 1)
	if m.Metrics().BalanceActions != 1 {
		t.Fatalf("balance actions = %d, want 1", m.Metrics().BalanceActions)
	}
}

func BenchmarkDistributedPhase(b *testing.B) {
	n := 1024
	cfg := DefaultConfig(n)
	bal, err := New(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: 1, Balancer: bal})
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		m.Inject(p*64, cfg.HeavyThreshold+cfg.TransferAmount)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// TestDegradesGracefullyUnderMessageLoss is the failure-injection
// test: with a lossy:0.2 plan dropping 20% of all protocol messages,
// the distributed balancer must still match most heavy processors and
// keep the load bounded — lost accepts waste choices, lost ids cost a
// phase, but heavy processors retry every phase.
func TestDegradesGracefullyUnderMessageLoss(t *testing.T) {
	n := 256
	cfg := DefaultConfig(n)
	plan := faults.Lossy(0.2)
	cfg.Faults = &plan
	var heavyObs, matchedObs int64
	cfg.OnPhase = func(ps core.PhaseStats) {
		heavyObs += int64(ps.Heavy)
		matchedObs += int64(ps.Matched)
	}
	b, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := gen.NewAdversarial(
		gen.Burst{Targets: 4, Amount: cfg.HeavyThreshold + cfg.TransferAmount, Window: 2 * cfg.PhaseLen},
		cfg.PhaseLen, 4*cfg.HeavyThreshold, int64(8*n*cfg.PhaseLen), 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: adv, Seed: 5, Balancer: b})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	for i := 0; i < 60; i++ {
		m.Run(2 * cfg.PhaseLen)
		if l := m.MaxLoad(); l > worst {
			worst = l
		}
	}
	if heavyObs == 0 {
		t.Fatal("no heavy processors observed")
	}
	rate := float64(matchedObs) / float64(heavyObs)
	if rate < 0.5 {
		t.Fatalf("match rate %v under 20%% loss — protocol collapsed", rate)
	}
	limit := 4 * (cfg.HeavyThreshold + cfg.TransferAmount)
	if worst > limit {
		t.Fatalf("max load %d exceeded %d under loss", worst, limit)
	}
}

// degreeCounter wraps a transport and records the most frames any one
// sender sent within one delivery window.
type degreeCounter struct {
	transport.Transport
	sent []int32
	peak int32
}

func (d *degreeCounter) Send(m transport.Message) {
	d.sent[m.From]++
	d.peak = max(d.peak, d.sent[m.From])
	d.Transport.Send(m)
}

func (d *degreeCounter) Deliver() {
	clear(d.sent)
	d.Transport.Deliver()
}

// TestPeakSendDegree checks the counter TestBoundedSendDegree reads: it
// takes the most frames one sender sent in a window, restarts each
// sender's count when a window is delivered, and keeps the peak.
func TestPeakSendDegree(t *testing.T) {
	dc := &degreeCounter{Transport: membus.New(4).View([]int32{0, 1, 2, 3}), sent: make([]int32, 4)}
	for i := 0; i < 7; i++ {
		dc.Send(transport.Message{From: 1, To: 2})
	}
	dc.Send(transport.Message{From: 0, To: 2})
	if dc.peak != 7 {
		t.Fatalf("peak send degree = %d, want 7", dc.peak)
	}
	dc.Deliver()
	for i := 0; i < 5; i++ {
		dc.Send(transport.Message{From: 1, To: 3})
	}
	dc.Send(transport.Message{From: 3, To: 0})
	if dc.peak != 7 {
		t.Fatalf("peak send degree = %d after a new window, want the historical 7", dc.peak)
	}
}

// TestNilFaultsKeepsPerfectNetwork checks that a balancer without an
// active fault plan sends on the raw bus view, which delivers a frame
// whole at the next window.
func TestNilFaultsKeepsPerfectNetwork(t *testing.T) {
	n := 64
	for _, plan := range []*faults.Plan{nil, {}} {
		cfg := DefaultConfig(n)
		cfg.Faults = plan
		_, b := distMachine(t, n, cfg, 3)
		v, ok := b.tr.(*membus.View)
		if !ok {
			t.Fatalf("plan %+v: transport is %T, want the raw bus view", plan, b.tr)
		}
		v.Send(transport.Message{From: 0, To: 1, Kind: transport.KindQuery, A: 5})
		v.Deliver()
		if in := v.Inbox(1); len(in) != 1 || in[0].A != 5 {
			t.Fatalf("plan %+v: inbox = %+v, want the one frame", plan, in)
		}
		if got := v.Stats(); got != (transport.Stats{Sent: 1}) {
			t.Fatalf("plan %+v: Stats = %+v, want one frame sent and none lost", plan, got)
		}
	}
}

// TestBoundedSendDegree enforces the paper's machine-model constraint:
// a processor communicates with at most a constant number of others
// per step. For the distributed balancer that constant is a (queries)
// plus c accepts plus an id and a forward pair — O(a + c).
func TestBoundedSendDegree(t *testing.T) {
	n := 256
	cfg := DefaultConfig(n)
	b, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: 61, Balancer: b})
	if err != nil {
		t.Fatal(err)
	}
	dc := &degreeCounter{Transport: b.tr, sent: make([]int32, n)}
	b.tr = dc
	for p := 0; p < 8; p++ {
		m.Inject(p*32, cfg.HeavyThreshold*2)
	}
	m.Run(4 * cfg.PhaseLen)
	limit := int32(cfg.Collision.A + cfg.Collision.C + 3)
	if dc.peak == 0 || dc.peak > limit {
		t.Fatalf("send degree %d, want within (0, %d]", dc.peak, limit)
	}
}

func TestPreRoundScheduleValidation(t *testing.T) {
	cfg := DefaultConfig(256)
	cfg.PreRound = true
	// Default phase no longer fits the +2 pre-round steps.
	if err := cfg.Validate(256); err == nil {
		t.Fatal("pre-round with unchanged phase accepted")
	}
	cfg.PhaseLen = cfg.ScheduleSteps()
	if err := cfg.Validate(256); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedPreRoundMatches(t *testing.T) {
	n := 256
	cfg := DefaultConfig(n)
	cfg.PreRound = true
	cfg.PhaseLen = cfg.ScheduleSteps()
	var pre, matched int64
	cfg.OnPhase = func(ps core.PhaseStats) {
		pre += int64(ps.PreMatched)
		matched += int64(ps.Matched)
	}
	b, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: gen.Single{P: 0.4, Eps: 0.1}, Seed: 71, Balancer: b})
	if err != nil {
		t.Fatal(err)
	}
	// Several phases, each with injected heavies: with ~97% of
	// processors light, most probes should match directly.
	for i := 0; i < 20; i++ {
		for p := 0; p < 4; p++ {
			m.Inject((p*61)%n, cfg.HeavyThreshold+2)
		}
		m.Run(cfg.PhaseLen)
	}
	m.Run(cfg.PhaseLen) // flush the last phase's stats
	if matched == 0 {
		t.Fatal("nothing matched")
	}
	if pre == 0 {
		t.Fatal("pre-round never matched despite an almost entirely light system")
	}
	if float64(pre) < 0.5*float64(matched) {
		t.Fatalf("pre-round matched only %d of %d", pre, matched)
	}
}

func TestPreRoundFallsBackToTrees(t *testing.T) {
	// When the probe collides or lands on a non-light processor, the
	// heavy must still match through its tree within the same phase.
	n := 64
	cfg := DefaultConfig(n)
	cfg.PreRound = true
	cfg.PhaseLen = cfg.ScheduleSteps()
	b, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := gen.NewSingle(0.001, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(sim.Config{N: n, Model: quiet, Seed: 73, Balancer: b})
	if err != nil {
		t.Fatal(err)
	}
	// Many heavies in a small machine: some probes will collide.
	for p := 0; p < 16; p++ {
		m.Inject(p*4, cfg.HeavyThreshold*2)
	}
	m.Run(cfg.PhaseLen + 1)
	if got := m.Metrics().BalanceActions; got < 12 {
		t.Fatalf("only %d/16 heavies balanced with pre-round + trees", got)
	}
}
