package experiments

import (
	"fmt"

	"plb/internal/engine"
	"plb/internal/faults"
	"plb/internal/node"
	"plb/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "E23",
		Title:      "Fault injection: task sojourn degradation",
		PaperClaim: "beyond the paper (Corollary 1 assumes a reliable synchronous machine): under message loss, slow links, and processor kills the node runtime's waiting-time tail should degrade smoothly — the p99 sojourn stays at the fault-free bucket, and a kill costs exactly the tasks that die with the killed processor, every one of them attributed by the conservation ledger",
		Run:        runE23,
	})
}

func runE23(cfg RunConfig) (*Result, error) {
	n := pick(cfg, 128, 512)
	steps := pick(cfg, 800, 2500)
	t := float64(stats.PaperT(n))
	model := singleModel()

	// Kill window: 10% of the processors die with their queues for the
	// middle third of the run, then restart empty as their next
	// incarnation. One node per endpoint, so each kill takes exactly
	// one processor down.
	k := n / 10
	crashAt := int64(steps / 3)
	crashRecover := int64(2 * steps / 3)

	ptr := func(p faults.Plan) *faults.Plan { return &p }
	scenarios := []struct {
		name string
		plan *faults.Plan
	}{
		{"fault-free", nil},
		{"lossy 5%", ptr(faults.Lossy(0.05))},
		{"lossy 20%", ptr(faults.Lossy(0.20))},
		{"stragglers 10% x4", ptr(faults.Stragglers(0.10, 4))},
		{"crash 10% (kill-restart)", ptr(faults.CrashWindow(k, crashAt, crashRecover))},
	}
	if cfg.Faults != "" {
		plan, err := faults.ParsePlan(cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("e23: -faults %q: %w", cfg.Faults, err)
		}
		scenarios = append(scenarios, struct {
			name string
			plan *faults.Plan
		}{fmt.Sprintf("custom (%s)", cfg.Faults), &plan})
	}

	res := &Result{
		ID:         "E23",
		Title:      "Fault-injection sojourn degradation (node runtime on the in-memory network)",
		PaperClaim: "waiting times degrade gracefully: lossy and straggler runs stay near the fault-free tail, and a kill loses exactly the tasks that die with the killed processors — imbalance == ledger, to the task",
		Columns:    []string{"scenario", "completed", "mean wait", "p99 wait (bucket)", "max wait", "max/T", "drops", "crash-lost", "final max"},
	}
	var freeP99 int64
	for _, sc := range scenarios {
		rep, lost, err := e23Run(node.FleetConfig{
			N: n, Endpoints: n, Network: "mem", Seed: cfg.Seed + 23, Model: model, Faults: sc.plan,
		}, steps)
		if err != nil {
			return nil, fmt.Errorf("e23: scenario %s: %w", sc.name, err)
		}
		ts := rep.Final.Tasks
		if sc.plan == nil {
			freeP99 = ts.P99Wait
		}
		res.Rows = append(res.Rows, []string{
			sc.name, fmtI(ts.Completed), fmtF(ts.MeanWait),
			fmtI(ts.P99Wait), fmtI(ts.MaxWait),
			fmtF(float64(ts.MaxWait) / t),
			fmtI(rep.Final.Drops + rep.Final.Extra["net_crash_lost"]), lost, fmtI(rep.Final.MaxLoad),
		})
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("n=%d node runtimes, one per endpoint, on the in-memory network for %d steps each under Single(0.4, 0.1); T=(log log n)^2=%d; runs are seed-exact", n, steps, stats.PaperT(n)),
		"link faults (loss, stragglers' extra send delay) hit every frame, task blocks included; acknowledged transfers retry and, after 5 attempts, requeue at the sender; drops counts the frames the links ate plus those sent to a killed processor",
		fmt.Sprintf("the crash row kills %d processors from step %d to %d; a killed node's queue dies with it and it restarts empty as its next incarnation", k, crashAt, crashRecover),
		"crash-lost is the ledger's CrashLost row after settling; every faulted row's settled imbalance equals the ledger's net exactly, or the run fails",
		fmt.Sprintf("fault-free p99 bucket edge: %d — the lossy/straggler rows are read against it", freeP99))
	res.Verdict = "the node runtime's pairwise rule, heavy only at 2T, sends almost no balancing traffic under this workload, so loss and slow links leave the mean wait and the p99 bucket where the fault-free run has them and move the max wait by a few steps at most; a kill loses exactly the tasks that die with the killed processors, all of them in the ledger's CrashLost row, and adds no wait tail, because dead tasks do not age"
	return res, nil
}

// e23Run drives one fleet for steps and, under a fault plan, settles it
// and checks the conservation ledger closes: lost is the ledger's
// CrashLost row, or "—" on a fault-free run.
func e23Run(fc node.FleetConfig, steps int) (rep engine.Report, lost string, err error) {
	f, err := node.NewFleet(fc)
	if err != nil {
		return rep, "", err
	}
	defer f.Close()
	if rep, err = engine.Drive(f, engine.DriveConfig{Steps: steps}); err != nil {
		return rep, "", err
	}
	if fc.Faults == nil {
		return rep, "—", nil
	}
	// The audit is exact only at a settled point: no block in flight and
	// every processor up.
	settled := f.Settle(steps)
	in, out, led := f.AuditLedger()
	if !settled || in-out != led.Net() {
		return rep, "", fmt.Errorf("settled=%v imbalance %d, ledger %+v (net %d)", settled, in-out, led, led.Net())
	}
	return rep, fmtI(led.CrashLost), nil
}
