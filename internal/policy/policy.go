// Package policy is the registry of balancing strategies (ROADMAP
// item 3): every competing strategy — the paper's balancer
// (internal/core), the message-passing protocol (internal/proto), the
// Section 1.1 baselines (internal/baselines) and the static
// balls-into-bins games (internal/static) — registers here under a
// name, and every tool resolves names through it.
//
// A registered strategy has one execution contract: it is a
// sim.Balancer (balances queues once per step) or a sim.Placer (places
// each newly generated task), written against *sim.Machine. A Spec
// couples a name to capability flags (the backend it runs on, whether
// it honors fault plans, failure-detector tuning or churn schedules)
// and an Install hook that wires the strategy into a sim.Config.
// Command-line validation derives every cross-flag rule from these
// capabilities instead of hard-coding policy names.
//
// Every registered policy with an Install hook executes through
// sim.Machine + engine.Drive, so all of them inherit Metrics.Tasks
// (wait quantiles, locality, hops), Extra counters, fault plumbing
// where declared, and trace/benchjson output for free.
package policy

import (
	"fmt"
	"sort"
	"strings"

	"plb/internal/sim"
)

// Caps declares what a registered policy supports. A flag the policy
// does not honor is a validation error that names the offending flag
// pair.
type Caps struct {
	// Backend names the command-line backend the policy runs on ("sim"
	// or "sockets").
	Backend string
	// Faults marks policies that honor a -faults plan.
	Faults bool
	// Detect marks policies that honor -detect tuning.
	Detect bool
	// Churn marks policies that honor a -churn schedule.
	Churn bool
	// Router marks task-allocation strategies: Install sets a
	// sim.Placer, which places fresh tasks instead of moving queued
	// ones.
	Router bool
	// Sparse marks policies that run on the sim backend's event-driven
	// mode (-sparse): the policy steps against the machine's
	// incremental heavy index instead of sweeping all n loads, with
	// bit-identical trajectories.
	Sparse bool
}

// Params carries the construction knobs an Install hook receives.
type Params struct {
	// N is the number of processors.
	N int
	// Scale multiplies T=(log log n)^2 for the paper configurations.
	Scale int
	// Seed derives the policy's randomness.
	Seed uint64
	// Faults, Detect and Churn are the raw command-line specs; a
	// policy that declares the capability parses and applies them,
	// everything else receives them empty (validation rejects the
	// combination first).
	Faults, Detect, Churn string
}

// Spec is one registry entry: a named policy with capability flags and
// a constructor that installs it into a sim.Config.
type Spec struct {
	// Name is the canonical registry name.
	Name string
	// Aliases are alternative names Lookup resolves to this entry.
	Aliases []string
	// Summary is a one-line description for listings and the README
	// matrix.
	Summary string
	// Caps are the declared capabilities.
	Caps Caps
	// Install wires the concrete strategy into cfg: a sim.Balancer,
	// or a sim.Placer when Caps.Router is set. It is nil for a backend
	// built-in (the sockets fleet's pairwise rule) that the backend
	// constructs itself.
	Install func(cfg *sim.Config, p Params) error
}

var (
	registry = map[string]Spec{}
	aliases  = map[string]string{}
)

// Register adds a policy at package init time. It panics on duplicate
// names or aliases (a registration bug).
func Register(s Spec) {
	if s.Name == "" {
		panic("policy: Register with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic("policy: duplicate registration of " + s.Name)
	}
	if _, dup := aliases[s.Name]; dup {
		panic("policy: name " + s.Name + " already registered as an alias")
	}
	for _, a := range s.Aliases {
		if _, dup := aliases[a]; dup {
			panic("policy: duplicate alias " + a)
		}
		if _, dup := registry[a]; dup {
			panic("policy: alias " + a + " shadows a registered name")
		}
		aliases[a] = s.Name
	}
	registry[s.Name] = s
}

// Lookup resolves a name or alias to its Spec.
func Lookup(name string) (Spec, bool) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	s, ok := registry[name]
	return s, ok
}

// Canonical resolves a name or alias to the canonical registry name.
func Canonical(name string) (string, bool) {
	s, ok := Lookup(name)
	return s.Name, ok
}

// All returns every registered policy sorted by name.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns every canonical policy name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BackendNames returns the canonical names of policies that run on the
// named backend, sorted.
func BackendNames(backend string) []string {
	var out []string
	for _, s := range All() {
		if s.Caps.Backend == backend {
			out = append(out, s.Name)
		}
	}
	return out
}

// InstallableNames returns the canonical names of policies with an
// Install hook (runnable on the sim substrate), sorted.
func InstallableNames() []string {
	var out []string
	for _, s := range All() {
		if s.Install != nil {
			out = append(out, s.Name)
		}
	}
	return out
}

// CapableNames returns, for a capability selector, the "name (-backend
// b)" pairs that support it — used to build flag errors that suggest
// valid alternatives without hard-coding names.
func CapableNames(has func(Caps) bool) []string {
	var out []string
	for _, s := range All() {
		if has(s.Caps) {
			out = append(out, fmt.Sprintf("%s (-backend %s)", s.Name, s.Caps.Backend))
		}
	}
	return out
}

// DefaultName returns the default policy for a backend ("" for an
// unknown backend; the constructors report those).
func DefaultName(backend string) string {
	switch backend {
	case "", "sim":
		return "bfm98"
	case "sockets":
		return "pairwise-sock"
	}
	return ""
}

// Table renders the registry as rows for listings: name, aliases,
// kind, backend, and a yes/— cell per capability, plus the summary.
func Table() (header []string, rows [][]string) {
	header = []string{"policy", "aliases", "kind", "backend", "faults", "detect", "churn", "sparse", "summary"}
	cell := func(on bool) string {
		if on {
			return "yes"
		}
		return "—"
	}
	for _, s := range All() {
		kind := "balancer"
		if s.Caps.Router {
			kind = "router"
		}
		if s.Install == nil {
			kind = "built-in"
		}
		aka := "—"
		if len(s.Aliases) > 0 {
			aka = strings.Join(s.Aliases, ", ")
		}
		rows = append(rows, []string{
			s.Name, aka, kind, s.Caps.Backend,
			cell(s.Caps.Faults), cell(s.Caps.Detect), cell(s.Caps.Churn), cell(s.Caps.Sparse),
			s.Summary,
		})
	}
	return header, rows
}
