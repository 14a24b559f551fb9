package policy_test

import (
	"os"
	"strings"
	"testing"

	// Pull in every registration, same as the tools do.
	_ "plb/internal/baselines"
	_ "plb/internal/core"
	_ "plb/internal/node"
	_ "plb/internal/proto"
	_ "plb/internal/static"

	"plb/internal/policy"
	"plb/internal/sim"
)

func TestRegistryShape(t *testing.T) {
	all := policy.All()
	if len(all) < 15 {
		t.Fatalf("registry holds %d policies, expected the full ported set", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All() not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	for _, s := range all {
		if s.Summary == "" {
			t.Errorf("policy %s has no summary", s.Name)
		}
		if s.Caps.Backend == "" || policy.DefaultName(s.Caps.Backend) == "" {
			t.Errorf("policy %s declares backend %q, which has no default policy", s.Name, s.Caps.Backend)
		}
	}
}

func TestLookupResolvesAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"proto":         "bfm98-dist",
		"phaseless":     "bfm98-phaseless",
		"greedy2":       "supermarket",
		"greedy-d":      "supermarket",
		"single-choice": "greedy1",
		"round-robin":   "rr",
		"power-of-d":    "supermarket",
		"local-search":  "localsearch",
	} {
		got, ok := policy.Canonical(alias)
		if !ok || got != want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", alias, got, ok, want)
		}
	}
	if _, ok := policy.Lookup("definitely-not-registered"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
}

func TestDefaultNamesRegistered(t *testing.T) {
	for _, backend := range []string{"sim", "sockets"} {
		name := policy.DefaultName(backend)
		spec, ok := policy.Lookup(name)
		if !ok {
			t.Fatalf("default policy %q for backend %s not registered", name, backend)
		}
		if spec.Caps.Backend != backend {
			t.Fatalf("default policy %q does not run on its own backend %s", name, backend)
		}
	}
	if policy.DefaultName("cluster") != "" {
		t.Error("unknown backend got a default policy")
	}
}

func TestTableRowPerPolicy(t *testing.T) {
	header, rows := policy.Table()
	if len(rows) != len(policy.All()) {
		t.Fatalf("%d table rows for %d policies", len(rows), len(policy.All()))
	}
	for _, row := range rows {
		if len(row) != len(header) {
			t.Fatalf("row %v has %d cells for %d columns", row, len(row), len(header))
		}
		if k := row[2]; k != "balancer" && k != "router" && k != "built-in" {
			t.Fatalf("policy %s has kind %q", row[0], k)
		}
	}
}

// TestInstallSetsOneStrategy checks the one execution contract: every
// installable entry sets exactly one of cfg.Balancer and cfg.Placer,
// and the Placer exactly when it declares Caps.Router (the matrix's
// kind column).
func TestInstallSetsOneStrategy(t *testing.T) {
	for _, s := range policy.All() {
		if s.Install == nil {
			continue
		}
		var cfg sim.Config
		if err := s.Install(&cfg, policy.Params{N: 64, Seed: 1}); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if (cfg.Balancer == nil) == (cfg.Placer == nil) || (cfg.Placer != nil) != s.Caps.Router {
			t.Errorf("%s (router=%v) installed balancer %T and placer %T", s.Name, s.Caps.Router, cfg.Balancer, cfg.Placer)
		}
	}
}

// markdownMatrix renders the registry capability matrix as a Markdown
// table — the source of truth for the README's policy matrix.
func markdownMatrix() string {
	header, rows := policy.Table()
	var b strings.Builder
	b.WriteString("| " + strings.Join(header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(header)) + "\n")
	for _, row := range rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// TestReadmeMatrixInSync asserts the README's policy matrix block is
// exactly markdownMatrix() — the README table is generated, not
// hand-maintained, so a new registration without a README regen fails
// here.
func TestReadmeMatrixInSync(t *testing.T) {
	const begin, end = "<!-- policy-matrix:begin -->", "<!-- policy-matrix:end -->"
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i := strings.Index(readme, begin)
	j := strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md is missing the %s / %s markers", begin, end)
	}
	got := strings.TrimSpace(readme[i+len(begin) : j])
	want := strings.TrimSpace(markdownMatrix())
	if got != want {
		t.Fatalf("README policy matrix is stale; regenerate the block between the markers from markdownMatrix():\n%s", want)
	}
}
