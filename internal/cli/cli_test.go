package cli

import (
	"io"
	"strings"
	"testing"

	"plb/internal/policy"
	"plb/internal/sim"
)

// TestValidateFlagCombos walks the cross-flag rules: every illegal
// pairing must fail up front with an error that names the offending
// flags, and every legal pairing must pass validation untouched.
func TestValidateFlagCombos(t *testing.T) {
	const churn = "churn:join=1,leave=1,period=50"
	cases := []struct {
		name                                 string
		backend, algo, faults, detect, churn string
		sparse                               bool
		want                                 []string // substrings the error must carry; empty = must pass
	}{
		{"defaults", "sim", "bfm98", "", "", "", false, nil},
		{"empty backend is sim", "", "bfm98-dist", "lossy:0.1", "", "", false, nil},
		{"faulted dist", "sim", "bfm98-dist", "lossy:0.1", "suspect=20", churn, false, nil},
		{"faults off-protocol", "sim", "rsu", "lossy:0.1", "", "", false, []string{"-faults", "-policy rsu"}},
		{"churn off-protocol", "sim", "bfm98", "", "", churn, false, []string{"-churn", "-policy bfm98"}},
		{"detect alone", "sim", "bfm98-dist", "", "suspect=20", "", false, []string{"-detect", "-faults"}},
		{"detect rides churn", "sim", "bfm98-dist", "", "suspect=20", churn, false, nil},
		{"unknown backend", "live", "", "", "", "", false, []string{"-backend", "live"}},
		{"retired shmem backend", "shmem", "", "", "", "", false, []string{"-backend", "shmem"}},
		{"sockets policy", "sockets", "rsu", "", "", "", false, []string{"-backend sockets", "-policy rsu"}},
		{"sockets detect", "sockets", "", "lossy:0.1", "suspect=20", "", false, []string{"-backend sockets", "-detect"}},
		{"sparse bfm98", "sim", "bfm98", "", "", "", true, nil},
		{"sparse phaseless", "sim", "bfm98-phaseless", "", "", "", true, nil},
		{"sparse pre-round", "sim", "bfm98-pre", "", "", "", true, nil},
		{"sparse off-policy", "sim", "bfm98-dist", "", "", "", true, []string{"-sparse", "-policy bfm98-dist"}},
		{"sparse router", "sim", "rsu", "", "", "", true, []string{"-sparse", "-policy rsu"}},
		{"sparse sockets", "sockets", "", "", "", "", true, []string{"-sparse", "-backend sockets"}},
		// Socket fleets honor the emulable part of the fault grammar:
		// link faults run in the chaostrans middleware, crash/flap drive
		// the supervisor; churn/drain/redistribute have no real-network
		// emulation and are rejected naming the daemon-lifecycle way.
		{"sockets lossy", "sockets", "", "lossy:0.1,dup:0.05", "", "", false, nil},
		{"sockets delay", "sockets", "", "delay:0.2@3,seed:7", "", "", false, nil},
		{"sockets partition", "sockets", "", "partition:2@100", "", "", false, nil},
		{"sockets crash", "sockets", "", "crash:1@50-200", "", "", false, nil},
		{"sockets flap", "sockets", "", "flap:k=1,period=80,duty=0.5", "", "", false, nil},
		{"sockets kitchen sink", "sockets", "", "lossy:0.05,partition:2@60,crash:1@40-120", "", "", false, nil},
		{"sockets malformed", "sockets", "", "lossy:nope", "", "", false, []string{"-faults"}},
		{"sockets churn", "sockets", "", "churn:join=1,leave=1,period=50", "", "", false, []string{"-backend sockets", "churn", "lbsimd"}},
		{"sockets drain", "sockets", "", "drain:2@50", "", "", false, []string{"-backend sockets", "drain", "SIGTERM"}},
		{"sockets redistribute", "sockets", "", "crash:1@50-200,redistribute", "", "", false, []string{"-backend sockets", "redistribute"}},
	}
	for _, c := range cases {
		err := ValidateFlags(c.backend, c.algo, c.faults, c.detect, c.churn, c.sparse, "", "")
		if len(c.want) == 0 {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: illegal combination accepted", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", c.name, err, w)
			}
		}
	}
}

func TestBuildModelAllNames(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := BuildModel(name, 1024, 1)
		if err != nil {
			t.Fatalf("BuildModel(%q) failed: %v", name, err)
		}
		if m.Name() == "" {
			t.Fatalf("model %q has empty name", name)
		}
	}
	if _, err := BuildModel("nope", 1024, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// params builds the InstallPolicy knobs at scale 1 and seed 1.
func params(n int, faults, detect, churn string) policy.Params {
	return policy.Params{N: n, Scale: 1, Seed: 1, Faults: faults, Detect: detect, Churn: churn}
}

func TestInstallPolicyAllNames(t *testing.T) {
	for _, name := range PolicyNames() {
		model, err := BuildModel("single", 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{N: 256, Model: model, Seed: 1}
		if err := InstallPolicy(&cfg, name, params(256, "", "", "")); err != nil {
			t.Fatalf("InstallPolicy(%q) failed: %v", name, err)
		}
		if cfg.Balancer == nil && cfg.Placer == nil {
			t.Fatalf("policy %q installed nothing", name)
		}
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("machine for %q: %v", name, err)
		}
		m.Run(20) // smoke: every policy survives a short run
	}
	cfg := sim.Config{}
	if err := InstallPolicy(&cfg, "nope", params(256, "", "", "")); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestInstallPolicyScale(t *testing.T) {
	model, err := BuildModel("single", 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{N: 1024, Model: model, Seed: 1}
	if err := InstallPolicy(&cfg, "bfm98", policy.Params{N: 1024, Scale: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scale=4 quadruples T, so thresholds are deep in the geometric
	// tail: almost no balancing traffic under Single.
	m.Run(500)
	if msgs := m.Metrics().Messages; msgs > 2000 {
		t.Fatalf("scaled config still chatty: %d messages", msgs)
	}
}

func TestBurstModelSmallN(t *testing.T) {
	// n/64 would round to zero targets at tiny n; the clamp must keep
	// the adversary alive.
	m, err := BuildModel("burst", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := sim.New(sim.Config{N: 16, Model: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	machine.Run(50)
	if machine.Generated() == 0 {
		t.Fatal("burst adversary generated nothing at n=16")
	}
}

func TestInstallPolicyFaults(t *testing.T) {
	model, err := BuildModel("single", 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{N: 256, Model: model, Seed: 1}
	if err := InstallPolicy(&cfg, "bfm98-dist", params(256, "lossy:0.1,crash:0.05@100-500", "", "")); err != nil {
		t.Fatalf("fault spec rejected: %v", err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(50) // smoke: faulted protocol survives
	if err := InstallPolicy(&sim.Config{}, "bfm98", params(256, "lossy:0.1", "", "")); err == nil {
		t.Fatal("faults accepted for a non-distributed policy")
	}
	if err := InstallPolicy(&sim.Config{}, "bfm98-dist", params(256, "lossy:nope", "", "")); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
}

func TestInstallPolicyChurn(t *testing.T) {
	model, err := BuildModel("single", 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{N: 128, Model: model, Seed: 1}
	if err := InstallPolicy(&cfg, "bfm98-dist", params(128, "", "", "churn:join=2,leave=2,period=60")); err != nil {
		t.Fatalf("churn spec rejected: %v", err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(200) // smoke: the elastic protocol survives churn ticks
	if got, want := m.Recorder().Completed+m.TotalLoad(), m.Generated(); got != want {
		t.Fatalf("conservation broken under churn: completed+queued = %d, generated = %d", got, want)
	}

	// -churn and -faults merge into one plan.
	cfg2 := sim.Config{N: 128, Model: model, Seed: 1}
	if err := InstallPolicy(&cfg2, "bfm98-dist", params(128, "lossy:0.05", "suspect=20", "drain:4@50")); err != nil {
		t.Fatalf("churn + faults + detect rejected: %v", err)
	}

	// A churn spec smuggling non-membership faults is rejected; those
	// belong in -faults.
	if err := InstallPolicy(&sim.Config{}, "bfm98-dist", params(128, "", "", "churn:join=1,period=60,lossy:0.1")); err == nil {
		t.Fatal("churn spec with a lossy directive accepted")
	}
	// ... as is one that schedules no membership change at all.
	if err := InstallPolicy(&sim.Config{}, "bfm98-dist", params(128, "", "", "seed:7")); err == nil {
		t.Fatal("membership-free churn spec accepted")
	}
	// -churn implies an active plan, so -detect may ride on it alone.
	if err := InstallPolicy(&sim.Config{N: 128, Model: model, Seed: 1}, "bfm98-dist", params(128, "", "suspect=20", "churn:join=1,period=60")); err != nil {
		t.Fatalf("-detect with -churn alone rejected: %v", err)
	}
}

func TestBuildRunnerBackends(t *testing.T) {
	for _, backend := range BackendNames() {
		r, err := BuildRunner(backend, "", "single", 64, 1, 1, 0, "", "", "", false, "", "")
		if err != nil {
			t.Fatalf("BuildRunner(%q) failed: %v", backend, err)
		}
		if c, ok := r.(io.Closer); ok {
			defer c.Close()
		}
		if got := r.Meta().Backend; got != backend {
			t.Fatalf("BuildRunner(%q) reports backend %q", backend, got)
		}
		r.Steps(4)
		if m := r.Collect(); m.Steps != 4 {
			t.Fatalf("backend %q: steps = %d, want 4", backend, m.Steps)
		}
	}
	if _, err := BuildRunner("nope", "bfm98", "single", 64, 1, 1, 0, "", "", "", false, "", ""); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestBuildRunnerProtoBackend(t *testing.T) {
	r, err := BuildRunner("sim", "bfm98-dist", "single", 64, 1, 1, 0, "", "", "", false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta().Backend; got != "proto" {
		t.Fatalf("bfm98-dist reports backend %q, want proto", got)
	}
}

func TestBuildRunnerRejectsMismatches(t *testing.T) {
	cases := []struct{ backend, algo, model, faults string }{
		{"live", "", "single", ""},
		{"sockets", "rsu", "single", ""},
		{"sockets", "", "single", "crash:1@50-200,redistribute"},
	}
	for _, c := range cases {
		if _, err := BuildRunner(c.backend, c.algo, c.model, 64, 1, 1, 0, c.faults, "", "", false, "", ""); err == nil {
			t.Fatalf("BuildRunner(%q, %q, %q, faults=%q) accepted", c.backend, c.algo, c.model, c.faults)
		}
	}
}

func TestBuildRunnerSocketsFaults(t *testing.T) {
	r, err := BuildRunner("sockets", "", "single", 8, 1, 1, 0, "lossy:0.5", "", "", false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer r.(interface{ Close() error }).Close()
	r.Steps(50)
	if m := r.Collect(); m.Drops == 0 {
		t.Fatalf("lossy sockets run recorded no drops: %+v", m)
	}
}

func TestInstallPolicyDetect(t *testing.T) {
	mod, _ := BuildModel("single", 256, 1)
	cfg := sim.Config{N: 256, Model: mod, Seed: 1}
	if err := InstallPolicy(&cfg, "bfm98-dist", params(256, "lossy:0.1", "suspect=20,hb=4", "")); err != nil {
		t.Fatalf("detect spec rejected: %v", err)
	}
	// -detect without -faults is meaningless (no detector runs).
	if err := InstallPolicy(&sim.Config{}, "bfm98-dist", params(256, "", "suspect=20", "")); err == nil {
		t.Fatal("-detect without -faults accepted")
	}
	if err := InstallPolicy(&sim.Config{}, "bfm98-dist", params(256, "lossy:0.1", "suspect=nope", "")); err == nil {
		t.Fatal("bad detect spec accepted")
	}
	if _, err := BuildRunner("sockets", "", "single", 8, 1, 1, 0, "lossy:0.5", "suspect=20", "", false, "", ""); err == nil {
		t.Fatal("sockets backend accepted -detect")
	}
}
