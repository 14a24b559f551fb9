package plb_test

import (
	"testing"

	"plb"
)

func TestQuickstartFlow(t *testing.T) {
	model, err := plb.NewSingleModel(0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := plb.NewBalancedMachine(plb.MachineConfig{N: 512, Model: model, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1000)
	if m.Now() != 1000 {
		t.Fatalf("Now = %d", m.Now())
	}
	if m.MaxLoad() > 8*plb.PaperT(512) {
		t.Fatalf("max load %d looks unbalanced", m.MaxLoad())
	}
}

func TestFacadeModels(t *testing.T) {
	if _, err := plb.NewSingleModel(0, 0); err == nil {
		t.Error("invalid single model accepted")
	}
	if _, err := plb.NewGeometricModel(3); err != nil {
		t.Error(err)
	}
	if _, err := plb.NewMultiModel([]float64{0.5, 0.2}); err != nil {
		t.Error(err)
	}
	adv, err := plb.NewAdversarialModel(plb.BurstAdversary(2, 8, 16), 16, 32, 4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Name() == "" {
		t.Error("adversarial model has no name")
	}
	if plb.TreeAdversary(0.5, 2, 1).Name() == "" {
		t.Error("tree adversary has no name")
	}
	if plb.HotspotAdversary(4, 16).Name() == "" {
		t.Error("hotspot adversary has no name")
	}
}

func TestFacadeBaselines(t *testing.T) {
	model, _ := plb.NewSingleModel(0.4, 0.1)
	for _, b := range []plb.Balancer{
		plb.NewUnbalanced(),
		plb.NewRSU(1),
		plb.NewLM(2, 1),
		plb.NewLauer(2, 1),
		plb.NewThrowAir(4, 1),
	} {
		m, err := plb.NewMachine(plb.MachineConfig{N: 64, Model: model, Balancer: b, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		m.Run(50)
	}
	g, err := plb.NewGreedyPlacer(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := plb.NewMachine(plb.MachineConfig{N: 64, Model: model, Placer: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(50)
	if m.Metrics().Messages == 0 {
		t.Error("greedy placer sent no messages")
	}
}

func TestFacadeCollision(t *testing.T) {
	res := plb.RunCollision(1024, []int32{3, 99, 500}, plb.Lemma1Params(), 5, 0)
	if !res.AllSatisfied {
		t.Fatal("collision protocol failed on a trivial instance")
	}
}

func TestFacadeBalancerConfig(t *testing.T) {
	cfg := plb.DefaultBalancerConfig(1 << 16)
	if cfg.T != 16 {
		t.Fatalf("default T = %d", cfg.T)
	}
	b, err := plb.NewBalancer(1<<10, plb.BalancerConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() == "" {
		t.Error("balancer has no name")
	}
	if plb.PaperT(1<<16) != 16 {
		t.Errorf("PaperT(2^16) = %d", plb.PaperT(1<<16))
	}
}

func TestPhaseStatsHookThroughFacade(t *testing.T) {
	n := 256
	var phases []plb.PhaseStats
	cfg := plb.DefaultBalancerConfig(n)
	cfg.OnPhase = func(ps plb.PhaseStats) { phases = append(phases, ps) }
	b, err := plb.NewBalancer(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := plb.NewSingleModel(0.4, 0.1)
	m, err := plb.NewMachine(plb.MachineConfig{N: n, Model: model, Balancer: b, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	if len(phases) == 0 {
		t.Fatal("OnPhase hook never fired")
	}
}

func TestFacadeDistributedAndPhaseless(t *testing.T) {
	model, _ := plb.NewSingleModel(0.4, 0.1)
	db, err := plb.NewDistributedBalancer(256, plb.DefaultDistributedConfig(256))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := plb.NewPhaselessBalancer(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []plb.Balancer{db, pb} {
		m, err := plb.NewMachine(plb.MachineConfig{N: 256, Model: model, Balancer: b, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		m.Inject(0, 200)
		m.Run(100)
		if m.Load(0) >= 200 {
			t.Fatalf("%s never balanced the pile", b.Name())
		}
	}
}

func TestFacadeWeights(t *testing.T) {
	if _, err := plb.NewUniformWeight(0, 3); err == nil {
		t.Error("invalid uniform weight accepted")
	}
	w, err := plb.NewParetoWeight(1.5, 32)
	if err != nil {
		t.Fatal(err)
	}
	model, _ := plb.NewSingleModel(0.2, 0.3)
	m, err := plb.NewMachine(plb.MachineConfig{N: 64, Model: model, Weigher: w, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(200)
	if m.MaxWeightedLoad() < int64(m.MaxLoad()) {
		t.Fatal("weighted load below count with weights >= 1")
	}
}
