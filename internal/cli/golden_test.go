package cli_test

import (
	"hash/fnv"
	"testing"

	"plb/internal/cli"
	"plb/internal/gen"
	"plb/internal/policy"
	"plb/internal/proto"
	"plb/internal/sim"
)

// The registry refactor must be behavior-preserving: a machine built
// through cli.InstallPolicy has to walk the exact step sequence the
// hand-wired constructors produced before the policy layer existed.
// These constants are the same seed digests internal/engine's golden
// tests pin (captured from the PR 2 head tree) — if the registry path
// diverges from them, the refactor changed what a policy does, not
// just where it is constructed.
const (
	goldenSimCore  = "c92a8f6f19d5e8f2" // bfm98, n=256, seed=42, 400 steps
	goldenSimProto = "8346e4a9aac2c839" // bfm98-dist, n=256, seed=42, 96 steps
	goldenN        = 256
	goldenSeed     = 42
)

// stepDigest hashes every per-step load snapshot of steps steps.
func stepDigest(t testing.TB, m *sim.Machine, steps int) string {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, 4)
	for i := 0; i < steps; i++ {
		m.Step()
		for _, l := range m.Snapshot() {
			buf[0] = byte(l)
			buf[1] = byte(l >> 8)
			buf[2] = byte(l >> 16)
			buf[3] = byte(l >> 24)
			h.Write(buf)
		}
	}
	const digits = "0123456789abcdef"
	v := h.Sum64()
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = digits[v&0xf]
		v >>= 4
	}
	return string(out)
}

// registryMachine builds the golden machine shape (Single(0.4, 0.1),
// Workers as given, 64 tasks injected on processor 0) with the policy
// installed through the registry.
func registryMachine(t testing.TB, name string, workers int, seed uint64) *sim.Machine {
	t.Helper()
	model, err := gen.NewSingle(0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{N: goldenN, Model: model, Seed: seed, Workers: workers}
	if err := cli.InstallPolicy(&cfg, name, policy.Params{N: goldenN, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Inject(0, 64)
	return m
}

// TestGoldenDigestsViaRegistry rebuilds both golden machines through
// cli.InstallPolicy and checks the digests are bit-identical to the
// pre-refactor constants.
func TestGoldenDigestsViaRegistry(t *testing.T) {
	if got := stepDigest(t, registryMachine(t, "bfm98", 4, goldenSeed), 400); got != goldenSimCore {
		t.Fatalf("registry-built bfm98 diverged from the pre-refactor seed: digest %s, want %s", got, goldenSimCore)
	}
	steps := 8 * proto.DefaultConfig(goldenN).PhaseLen
	if got := stepDigest(t, registryMachine(t, "bfm98-dist", 4, goldenSeed), steps); got != goldenSimProto {
		t.Fatalf("registry-built bfm98-dist diverged from the pre-refactor seed: digest %s, want %s", got, goldenSimProto)
	}
}

// TestPortedPoliciesWorkerInvariance checks that the registered
// baselines keep the substrate's determinism guarantee: the trajectory
// is bit-identical at Workers 1 and 8.
func TestPortedPoliciesWorkerInvariance(t *testing.T) {
	for _, name := range []string{"supermarket", "rr", "localsearch", "rsu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			one := stepDigest(t, registryMachine(t, name, 1, 7), 300)
			eight := stepDigest(t, registryMachine(t, name, 8, 7), 300)
			if one != eight {
				t.Fatalf("%s trajectory depends on worker count: workers=1 %s != workers=8 %s", name, one, eight)
			}
		})
	}
}

// TestRegistrySeedSensitivity guards against a policy silently ignoring
// its seed (the pre-refactor bfm98-dist bug: -seed never reached the
// proto config). Different seeds must give different trajectories.
func TestRegistrySeedSensitivity(t *testing.T) {
	for _, name := range []string{"bfm98", "bfm98-dist", "supermarket", "rsu"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := stepDigest(t, registryMachine(t, name, 1, 1), 120)
			b := stepDigest(t, registryMachine(t, name, 1, 2), 120)
			if a == b {
				t.Fatalf("%s produced identical trajectories under seeds 1 and 2 (seed not wired through)", name)
			}
		})
	}
}
