// Package cli holds the workload/policy/backend construction shared
// by the command-line tools, factored out of the mains so it is
// testable. Policy names, aliases and every cross-flag rule come from
// the internal/policy registry — nothing here is hard-coded per
// policy.
package cli

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	// Policy implementations self-register at init time.
	_ "plb/internal/baselines"
	_ "plb/internal/core"
	_ "plb/internal/proto"
	_ "plb/internal/static"

	"plb/internal/engine"
	"plb/internal/faults"
	"plb/internal/gen"
	"plb/internal/node"
	"plb/internal/policy"
	"plb/internal/sim"
	"plb/internal/stats"
	"plb/internal/transport/chaostrans"
)

// ModelNames lists the named workloads BuildWorkload accepts (a
// "workload:..." grammar spec is accepted anywhere a name is).
func ModelNames() []string {
	return []string{"single", "geometric", "multi", "burst", "tree", "hotspot", "diurnal"}
}

// PolicyNames lists the canonical policy names installable on the sim
// substrate (the registry entries with an Install hook).
func PolicyNames() []string { return policy.InstallableNames() }

// ResolvePolicy canonicalizes the -policy flag through the registry's
// aliases; unknown names (and "", the backend default) pass through
// for validation to report.
func ResolvePolicy(name string) string {
	if c, ok := policy.Canonical(name); ok {
		return c
	}
	return name
}

// ValidateFlags cross-checks the shared command-line flag surface up
// front: every illegal pairing fails here with one error naming the
// offending flag pair, before any backend construction starts (a
// construction error names internals, not the flags the user typed).
// backend "" means "sim"; an empty spec means the flag was not given.
// Every rule is derived from the policy registry's capability
// declarations; -model is not checked here, because every policy
// honors it on its backend and the constructors list the valid names.
// sparse mirrors the -sparse flag: event-driven stepping exists only
// on the sim backend and only for policies that declare the Sparse
// capability. listen and peers mirror the socket-backend flags: listen
// picks the in-process fleet's socket flavor ("unix" or "tcp"), peers
// exists only for lbsimd.
func ValidateFlags(backend, policyName, faultSpec, detectSpec, churnSpec string, sparse bool, listen, peers string) error {
	if backend == "" {
		backend = "sim"
	}
	if backend == "sockets" {
		// Socket fleets honor the subset of the fault grammar a real
		// network can execute: link faults run in the chaostrans frame
		// middleware, crash/flap schedules drive the supervisor's
		// kill/restart cycle. Features with no real-network emulation
		// (churn, drain, redistribute) are rejected loudly here, with
		// SplitPlan's error naming the directive and the daemon-lifecycle
		// alternative — never silently ignored.
		if faultSpec != "" {
			plan, err := faults.ParsePlan(faultSpec)
			if err != nil {
				return fmt.Errorf("cli: -faults %q: %w", faultSpec, err)
			}
			if _, _, err := chaostrans.SplitPlan(plan); err != nil {
				return fmt.Errorf("cli: -faults with -backend sockets: %w", err)
			}
		}
		if listen != "" && listen != "unix" && listen != "tcp" {
			return fmt.Errorf("cli: -listen %s with -backend sockets: the in-process fleet takes a socket flavor, \"unix\" or \"tcp\"", listen)
		}
		if peers != "" {
			return fmt.Errorf("cli: -peers with -backend sockets: lbsim always boots its own in-process fleet; to drive an external daemon fleet use lbsimd -loadgen with -peers")
		}
	} else if listen != "" || peers != "" {
		return fmt.Errorf("cli: -listen/-peers without -backend sockets: socket addressing has no meaning on the %s backend", backend)
	}
	if !slices.Contains(BackendNames(), backend) {
		return fmt.Errorf("cli: unknown -backend %q (have %v)", backend, BackendNames())
	}
	name := policyName
	if name == "" {
		name = policy.DefaultName(backend)
	}
	spec, ok := policy.Lookup(name)
	if !ok {
		return fmt.Errorf("cli: unknown -policy %q (have %v)", name, policy.Names())
	}
	if spec.Caps.Backend != backend {
		return fmt.Errorf("cli: -backend %s with -policy %s: %s runs on backend %s (this backend has %v)",
			backend, name, name, spec.Caps.Backend, policy.BackendNames(backend))
	}
	if faultSpec != "" && !spec.Caps.Faults {
		return fmt.Errorf("cli: -faults with -backend %s -policy %s: fault injection needs %s",
			backend, name, orList(policy.CapableNames(func(c policy.Caps) bool { return c.Faults })))
	}
	if detectSpec != "" && !spec.Caps.Detect {
		return fmt.Errorf("cli: -detect with -backend %s -policy %s: the failure detector needs %s",
			backend, name, orList(policy.CapableNames(func(c policy.Caps) bool { return c.Detect })))
	}
	if churnSpec != "" && !spec.Caps.Churn {
		return fmt.Errorf("cli: -churn with -backend %s -policy %s: elastic membership needs %s",
			backend, name, orList(policy.CapableNames(func(c policy.Caps) bool { return c.Churn })))
	}
	if sparse {
		if backend != "sim" {
			return fmt.Errorf("cli: -sparse with -backend %s: event-driven stepping exists only on the sim backend", backend)
		}
		if !spec.Caps.Sparse {
			var capable []string
			for _, s := range policy.All() {
				if s.Caps.Sparse {
					capable = append(capable, "-policy "+s.Name)
				}
			}
			sort.Strings(capable)
			return fmt.Errorf("cli: -sparse with -policy %s: event-driven stepping needs %s",
				name, strings.Join(capable, " or "))
		}
	}
	if detectSpec != "" && faultSpec == "" && churnSpec == "" {
		return fmt.Errorf("cli: -detect without -faults or -churn: the failure detector only runs under a fault or churn plan (a fault-free run has nothing to detect)")
	}
	return nil
}

func orList(names []string) string {
	if len(names) == 0 {
		return "a capability no registered policy declares"
	}
	sort.Strings(names)
	return "-policy " + strings.Join(names, " or ")
}

// BuildModel constructs a named workload model for n processors.
func BuildModel(name string, n int, seed uint64) (gen.Model, error) {
	t := stats.PaperT(n)
	switch name {
	case "single":
		return gen.NewSingle(0.4, 0.1)
	case "geometric":
		return gen.NewGeometric(2)
	case "multi":
		return gen.NewMulti([]float64{0.45, 0.25, 0.1, 0.05})
	case "burst":
		return gen.NewAdversarial(gen.Burst{Targets: maxInt(1, n/64), Amount: t, Window: t}, t, 2*t, int64(8*n), seed)
	case "tree":
		return gen.NewAdversarial(gen.Tree{Spawn: 0.3, Branch: 2, Roots: float64(n) / 8}, t, 2*t, int64(8*n), seed)
	case "hotspot":
		return gen.NewAdversarial(&gen.Hotspot{Rate: t, Window: 4 * t}, t, 2*t, int64(8*n), seed)
	case "diurnal":
		return gen.NewDiurnal(0.45, 0.15, 0.1, 400)
	default:
		return nil, fmt.Errorf("cli: unknown model %q (have %v, or a workload: grammar spec)", name, ModelNames())
	}
}

// BuildWorkload resolves a model name or a "workload:..." grammar spec
// into an arrival model plus an optional service weigher (nil for unit
// service). An empty name means the default "single" model.
func BuildWorkload(name string, n int, seed uint64) (gen.Model, gen.Weigher, error) {
	if name == "" {
		name = "single"
	}
	if gen.IsWorkloadSpec(name) {
		w, err := gen.ParseWorkload(name, n, seed)
		if err != nil {
			return nil, nil, err
		}
		return w.Model, w.Weigher, nil
	}
	m, err := BuildModel(name, n, seed)
	return m, nil, err
}

// InstallPolicy wires a registered policy into cfg (as Balancer or
// Placer) after capability validation. The Params carry n, the T
// scale, the seed and the raw fault/detect/churn specs; only a policy
// declaring the matching capability receives non-empty specs.
// cfg.Sparse is part of the validated surface: a policy without the
// Sparse capability cannot be installed on an event-driven machine.
func InstallPolicy(cfg *sim.Config, name string, p policy.Params) error {
	if err := ValidateFlags("sim", name, p.Faults, p.Detect, p.Churn, cfg.Sparse, "", ""); err != nil {
		return err
	}
	if name == "" {
		name = policy.DefaultName("sim")
	}
	spec, ok := policy.Lookup(name)
	if !ok {
		return fmt.Errorf("cli: unknown -policy %q (have %v)", name, policy.Names())
	}
	if spec.Install == nil {
		return fmt.Errorf("cli: policy %s is a %s-backend built-in and cannot be installed on sim", spec.Name, spec.Caps.Backend)
	}
	return spec.Install(cfg, p)
}

// BackendNames lists the backends BuildRunner accepts.
func BackendNames() []string { return []string{"sim", "sockets"} }

// BuildRunner constructs an engine.Runner for a named backend.
//
//   - "sim" (default) wires a workload + policy into the lockstep
//     machine; policy bfm98-dist rides it as the message-passing proto
//     backend. model may be a name or a "workload:..." grammar spec.
//   - "sockets" boots an in-process fleet of node runtimes whose every
//     message crosses a real socket (internal/node over socktrans);
//     listen picks the flavor ("unix", the default, or "tcp"). It is
//     only statistically reproducible. model may be a name or a
//     workload grammar spec, exactly as on sim.
//
// Callers that need backend-specific knobs beyond these should build
// the runner directly; this covers the common command-line surface.
func BuildRunner(backend, policyName, model string, n, scale int, seed uint64, workers int, faultSpec, detectSpec, churnSpec string, sparse bool, listen, peers string) (engine.Runner, error) {
	if err := ValidateFlags(backend, policyName, faultSpec, detectSpec, churnSpec, sparse, listen, peers); err != nil {
		return nil, err
	}
	switch backend {
	case "", "sim":
		mod, weigher, err := BuildWorkload(model, n, seed)
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{N: n, Model: mod, Weigher: weigher, Seed: seed, Workers: workers, Sparse: sparse}
		p := policy.Params{N: n, Scale: scale, Seed: seed, Faults: faultSpec, Detect: detectSpec, Churn: churnSpec}
		if err := InstallPolicy(&cfg, policyName, p); err != nil {
			return nil, err
		}
		return sim.New(cfg)
	case "sockets":
		mod, weigher, err := BuildWorkload(model, n, seed)
		if err != nil {
			return nil, err
		}
		fc := node.FleetConfig{
			N: n, Network: listen, Seed: seed, Model: mod, Weigher: weigher, Scale: scale,
		}
		if faultSpec != "" {
			plan, err := faults.ParsePlan(faultSpec)
			if err != nil {
				return nil, err
			}
			fc.Faults = &plan
		}
		return node.NewFleet(fc)
	default:
		return nil, fmt.Errorf("cli: unknown backend %q (have %v)", backend, BackendNames())
	}
}

// ListPolicies renders the registry with capability columns as an
// aligned text table (the lbsim -list-policies output).
func ListPolicies() string {
	header, rows := policy.Table()
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if l := len([]rune(cell)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(cell))))
			}
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
