// Package plb is a Go implementation of the parallel continuous
// randomized load-balancing algorithm of Berenbrink, Friedetzky and
// Mayr (SPAA 1998), together with the synchronous machine substrate it
// runs on, the paper's load-generation models, the
// (n, beta, a, b, c)-collision protocol, and the related balancing
// schemes the paper compares against.
//
// The quickest way in:
//
//	model, _ := plb.NewSingleModel(0.4, 0.1)
//	m, _ := plb.NewBalancedMachine(plb.MachineConfig{
//		N: 4096, Model: model, Seed: 1,
//	})
//	m.Run(5000)
//	fmt.Println(m.MaxLoad(), m.Metrics().Messages)
//
// The algorithm: time is divided into phases of T/16 steps with
// T = (log log n)^2. A processor whose load reaches T/2 at a phase
// start is heavy; one at or below T/16 is light. Heavy processors
// locate light partners with doubling balancing-request trees driven
// by the collision protocol and move T/4 tasks in one block, so the
// maximum load stays at O((log log n)^2) w.h.p. while the message rate
// is o(n) per phase and co-generated tasks stay together.
//
// This package is a façade: the implementation lives in internal
// packages (internal/core, internal/sim, internal/gen,
// internal/collision, internal/baselines), re-exported here as type
// aliases and constructors so downstream code needs only this import.
package plb

import (
	"plb/internal/baselines"
	"plb/internal/collision"
	"plb/internal/core"
	"plb/internal/engine"
	"plb/internal/gen"
	"plb/internal/proto"
	"plb/internal/sim"
	"plb/internal/stats"
	"plb/internal/xrand"
)

// newStream builds a private random stream for façade helpers.
func newStream(seed uint64) *xrand.Stream { return xrand.New(seed) }

// Machine is the simulated synchronous n-processor system.
type Machine = sim.Machine

// Metrics is the communication/movement cost accounting of a Machine.
type Metrics = sim.Metrics

// Balancer is a per-step load-balancing algorithm.
type Balancer = sim.Balancer

// Placer is a balls-into-bins style global task-allocation strategy.
type Placer = sim.Placer

// Model is a per-processor load generation/consumption model.
type Model = gen.Model

// Adversary plans adversarial task generation against observed loads.
type Adversary = gen.Adversary

// BalancerConfig parameterizes the paper's algorithm (zero fields are
// filled with the paper's formulas for n).
type BalancerConfig = core.Config

// PhaseStats reports what happened in one balancing phase.
type PhaseStats = core.PhaseStats

// CollisionParams are the (a, b, c) constants of the collision
// protocol.
type CollisionParams = collision.Params

// CollisionResult is the outcome of a standalone collision-protocol
// run.
type CollisionResult = collision.Result

// MachineConfig configures NewMachine / NewBalancedMachine.
type MachineConfig = sim.Config

// NewMachine constructs a machine with an arbitrary balancer/placer
// combination (nil Balancer and Placer gives the unbalanced system).
func NewMachine(cfg MachineConfig) (*Machine, error) { return sim.New(cfg) }

// NewBalancer constructs the paper's balancer for n processors.
func NewBalancer(n int, cfg BalancerConfig) (*core.Balancer, error) { return core.New(n, cfg) }

// DefaultBalancerConfig returns the paper's parameterization for n.
func DefaultBalancerConfig(n int) BalancerConfig { return core.DefaultConfig(n) }

// NewBalancedMachine wires the paper's balancer (with its default
// configuration) into a fresh machine.
func NewBalancedMachine(cfg MachineConfig) (*Machine, error) {
	if cfg.Balancer == nil {
		b, err := core.New(cfg.N, core.Config{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		cfg.Balancer = b
	}
	return sim.New(cfg)
}

// NewSingleModel returns the paper's primary workload: each step every
// processor generates a task with probability p and consumes one with
// probability p+eps.
func NewSingleModel(p, eps float64) (Model, error) { return gen.NewSingle(p, eps) }

// NewGeometricModel returns the Geometric(k) workload: i tasks with
// probability 2^-(i+1) for i in 1..k, deterministic unit consumption.
func NewGeometricModel(k int) (Model, error) { return gen.NewGeometric(k) }

// NewMultiModel returns the Multi workload with P(i tasks) = probs[i].
func NewMultiModel(probs []float64) (Model, error) { return gen.NewMulti(probs) }

// NewAdversarialModel wraps an adversary with the paper's budget
// constraints: at most perWindowBudget generated tasks per processor
// per windowT steps and total system load at most systemBound.
func NewAdversarialModel(adv Adversary, windowT, perWindowBudget int, systemBound int64, seed uint64) (Model, error) {
	return gen.NewAdversarial(adv, windowT, perWindowBudget, systemBound, seed)
}

// BurstAdversary dumps amount tasks on targets random processors at
// the start of every window.
func BurstAdversary(targets, amount, window int) Adversary {
	return gen.Burst{Targets: targets, Amount: amount, Window: window}
}

// TreeAdversary models tree-structured computation: busy processors
// spawn branch children with probability spawn per step, and roots
// fresh tasks arrive at rate roots per step system-wide.
func TreeAdversary(spawn float64, branch int, roots float64) Adversary {
	return gen.Tree{Spawn: spawn, Branch: branch, Roots: roots}
}

// HotspotAdversary aims rate tasks per step at one processor, moving
// the hotspot every window steps.
func HotspotAdversary(rate, window int) Adversary {
	return &gen.Hotspot{Rate: rate, Window: window}
}

// Lemma1Params returns the collision-protocol constants used by the
// paper: a=5 queries, b=2 required accepts, collision value c=1.
func Lemma1Params() CollisionParams { return collision.Lemma1Params() }

// RunCollision executes the standalone (n, beta, a, b, c)-collision
// protocol for the given requesting processors with a fresh stream
// seeded by seed. maxRounds <= 0 selects the paper's round budget.
func RunCollision(n int, requesters []int32, p CollisionParams, seed uint64, maxRounds int) CollisionResult {
	return collision.Run(n, requesters, p, newStream(seed), maxRounds)
}

// Baseline constructors (Section 1.1's related work, for comparisons).

// NewUnbalanced returns the no-op balancer.
func NewUnbalanced() Balancer { return baselines.Unbalanced{} }

// NewGreedyPlacer returns the d-choice balls-into-bins placer (d=1:
// classic single choice; d>=2: ABKU greedy / supermarket model).
func NewGreedyPlacer(d int) (Placer, error) {
	g, err := baselines.NewGreedyD(d)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// NewRSU returns Rudolph-Slivkin-Allalouf-Upfal pairwise equalization.
func NewRSU(seed uint64) Balancer { return &baselines.RSU{Seed: seed} }

// NewLM returns Lüling-Monien load-doubling-triggered equalization
// with k random partners.
func NewLM(k int, seed uint64) Balancer { return &baselines.LM{K: k, Seed: seed} }

// NewLauer returns Lauer's average-band algorithm with activation
// factor c.
func NewLauer(c float64, seed uint64) Balancer {
	return &baselines.Lauer{C: c, Seed: seed}
}

// NewThrowAir returns the redistribute-everything strawman with the
// given period.
func NewThrowAir(interval int, seed uint64) Balancer {
	return &baselines.ThrowAir{Interval: interval, Seed: seed}
}

// PaperT returns T = (log log n)^2 (rounded, floored at 1) — the
// quantity all of the paper's bounds are stated in.
func PaperT(n int) int { return stats.PaperT(n) }

// Weigher assigns service weights to generated tasks (the weighted
// extension); install via MachineConfig.Weigher and set
// BalancerConfig.ByWeight to balance by weight.
type Weigher = gen.Weigher

// NewUniformWeight returns a Weigher drawing weights uniformly from
// [min, max].
func NewUniformWeight(min, max int32) (Weigher, error) { return gen.NewUniformWeight(min, max) }

// NewParetoWeight returns a heavy-tailed Weigher with
// P(W >= w) = w^-alpha, truncated at max.
func NewParetoWeight(alpha float64, max int32) (Weigher, error) {
	return gen.NewParetoWeight(alpha, max)
}

// DistributedConfig parameterizes the fully distributed (real
// message-passing) implementation of the protocol.
type DistributedConfig = proto.Config

// DefaultDistributedConfig derives laptop-scale constants whose phase
// fits the distributed protocol's schedule.
func DefaultDistributedConfig(n int) DistributedConfig { return proto.DefaultConfig(n) }

// NewDistributedBalancer constructs the Figure 2 state-machine
// implementation: queries, accepts, id and forward messages travel
// over a unit-latency synchronous network, and the transfer happens
// only when the tree root has heard from a light processor.
func NewDistributedBalancer(n int, cfg DistributedConfig) (Balancer, error) {
	return proto.New(n, cfg)
}

// NewPhaselessBalancer constructs the concluding-remarks variant that
// drops phases entirely: a processor initiates the moment its load
// crosses the heavy threshold, with a per-step collision rule and a
// cooldown between attempts.
func NewPhaselessBalancer(n int, seed uint64) (Balancer, error) {
	return core.NewPhaseless(n, seed)
}

// Unified engine surface: one Runner abstraction over every backend
// (see docs/ENGINE.md). *Machine implements Runner, and so does the
// node fleet behind the sockets backend, so one harness drives them
// all through Drive.

// Runner is a steppable backend with the unified observable surface.
type Runner = engine.Runner

// RunMeta identifies a run (backend, algorithm, model, n, seed).
type RunMeta = engine.Meta

// RunMetrics is the unified cross-backend metrics snapshot.
type RunMetrics = engine.Metrics

// Observer receives a metrics sample at every drive cadence point;
// ObserverFunc adapts a plain function.
type Observer = engine.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = engine.ObserverFunc

// DriveConfig parameterizes Drive (steps, warmup, sampling cadence,
// observers, stop condition).
type DriveConfig = engine.DriveConfig

// DriveReport aggregates a drive (final metrics, sample count, peak
// and mean max load).
type DriveReport = engine.Report

// Drive is the single run loop over any backend: warm up, then step at
// the sampling cadence, notifying observers and honoring the stop
// condition.
func Drive(r Runner, cfg DriveConfig) (DriveReport, error) { return engine.Drive(r, cfg) }
