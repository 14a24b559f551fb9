package cli_test

import (
	"io"
	"strings"
	"testing"

	"plb/internal/cli"
	"plb/internal/policy"
)

// TestResolvePolicyTable pins -policy resolution: every registry alias
// canonicalizes, and unknown names (and the empty default) pass
// through for validation to report.
func TestResolvePolicyTable(t *testing.T) {
	cases := []struct{ flag, want string }{
		{"", ""},
		{"bfm98", "bfm98"},
		{"greedy2", "supermarket"},
		{"greedy-d", "supermarket"},
		{"single-choice", "greedy1"},
		{"round-robin", "rr"},
		{"power-of-d", "supermarket"},
		{"phaseless", "bfm98-phaseless"},
		{"proto", "bfm98-dist"},
		{"no-such-policy", "no-such-policy"},
	}
	for _, c := range cases {
		if got := cli.ResolvePolicy(c.flag); got != c.want {
			t.Errorf("ResolvePolicy(%q) = %q, want %q", c.flag, got, c.want)
		}
	}
}

// TestLegacyAlgoNamesStillResolve checks every name the retired -algo
// switch accepted still resolves, through -policy, to a registered
// policy.
func TestLegacyAlgoNamesStillResolve(t *testing.T) {
	legacy := []string{
		"bfm98", "bfm98-pre", "bfm98-dist", "bfm98-phaseless",
		"unbalanced", "greedy1", "greedy2", "rsu", "lm",
		"lauer", "lauer-est", "throwair",
	}
	for _, name := range legacy {
		if _, ok := policy.Lookup(cli.ResolvePolicy(name)); !ok {
			t.Errorf("legacy name %s no longer resolves to a registered policy", name)
		}
	}
}

// TestEveryPolicyBackendFlagCombo is the regression test for the
// hard-coded bfm98-dist if-ladder this PR removed: for EVERY
// registered policy crossed with every backend and flag combination,
// validation must either pass and yield a runnable configuration, or
// fail with an error naming a command-line flag — never pass and then
// blow up in a constructor, never reject with an internals-speak
// message.
func TestEveryPolicyBackendFlagCombo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every policy x backend x flag combination")
	}
	combos := []struct {
		label, faults, detect, churn string
	}{
		{"plain", "", "", ""},
		{"faults", "lossy:0.05", "", ""},
		{"faults+detect", "lossy:0.05", "suspect=8,down=16,hb=4", ""},
		{"churn", "", "", "churn:join=2,leave=2,period=40"},
		{"detect-alone", "", "suspect=8,down=16,hb=4", ""}, // illegal everywhere
	}
	// Every spelling -policy accepts is covered, aliases included. The
	// live and shmem backends and the threshold and collision policies
	// were removed: a command line still naming one must be rejected
	// up front, naming the flag that carries the retired name.
	backends := []string{"sim", "live", "shmem", "sockets"}
	var policies []string
	for _, s := range policy.All() {
		policies = append(append(policies, s.Name), s.Aliases...)
	}
	policies = append(policies, "threshold", "collision")
	const n = 64
	for _, pol := range policies {
		for _, backend := range backends {
			for _, c := range combos {
				name := pol + "/" + backend + "/" + c.label
				t.Run(name, func(t *testing.T) {
					err := cli.ValidateFlags(backend, pol, c.faults, c.detect, c.churn, false, "", "")
					if retired := retiredFlag(backend, pol); retired != "" && (err == nil || !strings.Contains(err.Error(), retired)) {
						t.Fatalf("retired name: got %v, want a rejection naming %s", err, retired)
					}
					if err != nil {
						if !strings.Contains(err.Error(), "-") {
							t.Fatalf("rejection does not name a flag: %v", err)
						}
						return
					}
					if c.label == "detect-alone" {
						t.Fatal("detect without faults/churn validated")
					}
					r, err := cli.BuildRunner(backend, pol, "", n, 1, 5, 0, c.faults, c.detect, c.churn, false, "", "")
					if err != nil {
						t.Fatalf("validation passed but construction failed: %v", err)
					}
					if closer, ok := r.(io.Closer); ok {
						defer closer.Close()
					}
					r.Steps(2)
					if got := r.Meta().N; got < 1 {
						t.Fatalf("runner meta N = %d after stepping", got)
					}
				})
			}
		}
	}
}

// retiredFlag names the flag carrying a removed backend or policy
// name, or returns "" when neither name was removed.
func retiredFlag(backend, pol string) string {
	switch {
	case backend == "live", backend == "shmem":
		return "-backend"
	case pol == "threshold", pol == "collision":
		return "-policy"
	}
	return ""
}

// TestListPoliciesOutput sanity-checks the -list-policies table: a
// header row plus one row per registered policy, every canonical name
// and every alias present.
func TestListPoliciesOutput(t *testing.T) {
	out := cli.ListPolicies()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := 1 + len(policy.All()); len(lines) != want {
		t.Fatalf("ListPolicies has %d lines, want %d (header + one per policy)", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "policy") {
		t.Fatalf("header = %q", lines[0])
	}
	words := map[string]bool{}
	for _, w := range strings.FieldsFunc(out, func(r rune) bool { return r == ' ' || r == ',' || r == '\n' }) {
		words[w] = true
	}
	for _, s := range policy.All() {
		for _, name := range append([]string{s.Name}, s.Aliases...) {
			if !words[name] {
				t.Fatalf("ListPolicies output missing %q", name)
			}
		}
	}
}

// TestShootoutPoliciesInstallable checks the E26 default line-up stays
// installable: at least 6 distinct registered policies must run
// through the single sim+engine harness.
func TestShootoutPoliciesInstallable(t *testing.T) {
	names := policy.InstallableNames()
	if len(names) < 6 {
		t.Fatalf("only %d installable policies registered: %v", len(names), names)
	}
	for _, name := range names {
		if _, ok := policy.Lookup(name); !ok {
			t.Fatalf("installable name %q not in registry", name)
		}
	}
}
