// Package detect is a deterministic, deadline-based failure detector
// for the distributed protocol: per-peer liveness is *inferred from
// the wire* (any received message is evidence the sender was recently
// alive) instead of read from the fault injector's god-view.
//
// The paper's collision protocol assumes every random query target
// answers; the fault substrate (internal/faults) breaks that
// assumption, and until this package existed the proto backend cheated
// by consulting the injector oracle directly — crash handling was free
// and instantaneous in a way no distributed system can match. The
// detector makes crash handling cost what it really costs: silence
// must accumulate past a deadline before a peer is suspected, explicit
// heartbeat probes must flow to keep quiet-but-alive peers admitted,
// and a straggler whose messages arrive late can be falsely suspected
// and must be re-admitted when its traffic resumes. The injector
// remains ground truth for *measuring* the detector (detection
// latency, false suspicions, missed windows) — never for deciding.
//
// The state machine per peer:
//
//	Alive ──silence > SuspectAfter──▶ Suspected ──silence > DownAfter──▶ Down
//	  ▲                                   │                               │
//	  └────────────── fresh traffic (re-admission) ──────────────────────┘
//
// Everything is a pure function of (config, seed, call sequence):
// heartbeat stagger offsets and gossip targets come from a seeded
// stream, deadlines from integer arithmetic, so a run replays
// bit-for-bit.
package detect

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"plb/internal/xrand"
)

// State is a peer's liveness verdict as seen by the detector.
type State uint8

const (
	// Alive: traffic from the peer has been heard within SuspectAfter.
	Alive State = iota
	// Suspected: silence exceeded SuspectAfter; protocol decisions
	// (partner choice, reservation release) treat the peer as down,
	// but it is re-admitted the moment traffic resumes.
	Suspected
	// Down: silence exceeded DownAfter; the peer is considered
	// confirmed-crashed (still re-admitted on fresh traffic — crashed
	// processors may recover).
	Down
)

// String implements fmt.Stringer for test output.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspected:
		return "suspected"
	case Down:
		return "down"
	}
	return "invalid"
}

// Config tunes the detector. The zero value is not runnable; use
// DefaultConfig (schedule-derived) merged with any overrides.
type Config struct {
	// SuspectAfter is the silence (in steps) after which a peer is
	// suspected. It must exceed HeartbeatEvery plus the network round
	// trip, or quiet-but-alive peers are suspected every cadence gap.
	SuspectAfter int64
	// DownAfter is the silence after which a suspected peer is
	// confirmed down (>= SuspectAfter).
	DownAfter int64
	// HeartbeatEvery is the per-processor heartbeat cadence in steps:
	// each alive processor sends one KindHeartbeat probe to a random
	// peer every HeartbeatEvery steps (staggered so the fleet does not
	// burst in lockstep). Piggy-backed gossip — protocol traffic that
	// happens to flow anyway — refreshes liveness for free; heartbeats
	// only pay for peers the protocol would otherwise leave quiet.
	HeartbeatEvery int64
	// Seed derives the heartbeat stagger and gossip targets. Zero lets
	// the consumer substitute its own (proto uses the balancer seed).
	Seed uint64
	// XferDedup sizes the per-receiver ring of recently applied
	// transfer sequence numbers (the duplicate filter for acknowledged
	// transfers). 0 derives 8. Sizing bound: the ring must hold every
	// block a receiver applies between a transfer's first application
	// and the arrival of its last retransmit. A sender keeps at most
	// one block outstanding and stops retrying after A tries (proto's
	// transfer attempts, 4), so with a receivers applying at most one
	// block per step over a retry horizon of D * 2^A steps (D the first
	// ack deadline, 4), a ring of A + 1 entries per plausibly-concurrent
	// sender is safe; the default 8 covers the 4-attempt schedule with
	// two concurrent senders to spare. An undersized ring never loses
	// tasks — a re-applied duplicate double-counts them instead, which
	// the conservation invariant turns into a loud failure.
	XferDedup int
}

// DefaultConfig derives a workable detector tuning from the protocol
// phase length: heartbeats four times per phase, suspicion after two
// missed heartbeats plus the round trip, confirmation after four
// suspicion windows.
func DefaultConfig(phaseLen int) Config {
	hb := int64(phaseLen) / 4
	if hb < 2 {
		hb = 2
	}
	suspect := 2*hb + 3
	return Config{
		HeartbeatEvery: hb,
		SuspectAfter:   suspect,
		DownAfter:      4 * suspect,
	}
}

// Merge returns c with every non-zero field of override applied.
func (c Config) Merge(override Config) Config {
	if override.SuspectAfter != 0 {
		c.SuspectAfter = override.SuspectAfter
	}
	if override.DownAfter != 0 {
		c.DownAfter = override.DownAfter
	}
	if override.HeartbeatEvery != 0 {
		c.HeartbeatEvery = override.HeartbeatEvery
	}
	if override.Seed != 0 {
		c.Seed = override.Seed
	}
	if override.XferDedup != 0 {
		c.XferDedup = override.XferDedup
	}
	return c
}

// Validate checks the tuning for internal consistency.
func (c Config) Validate() error {
	if c.HeartbeatEvery < 1 {
		return fmt.Errorf("detect: heartbeat cadence %d must be >= 1", c.HeartbeatEvery)
	}
	if c.SuspectAfter < 1 {
		return fmt.Errorf("detect: suspicion timeout %d must be >= 1", c.SuspectAfter)
	}
	if c.DownAfter < c.SuspectAfter {
		return fmt.Errorf("detect: confirmation timeout %d must be >= suspicion timeout %d",
			c.DownAfter, c.SuspectAfter)
	}
	if c.XferDedup < 0 {
		return fmt.Errorf("detect: dedup ring size %d must be >= 0", c.XferDedup)
	}
	return nil
}

// ParseConfig parses the -detect command-line syntax: a comma-separated
// list of key=value overrides on the schedule-derived defaults.
//
//	suspect=N   suspicion timeout in steps
//	down=N      confirmed-down timeout in steps
//	hb=N        heartbeat cadence in steps
//	dedup=N     transfer dedup ring size (see Config.XferDedup)
//	seed=N      detector seed (default: the run seed)
//
// Example: "suspect=20,hb=4". An empty spec returns the zero Config
// (every field derives its default).
func ParseConfig(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, arg, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("detect: directive %q wants key=value", part)
		}
		switch key {
		case "suspect", "down", "hb", "dedup":
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || v < 1 {
				return Config{}, fmt.Errorf("detect: %s %q must be a positive integer", key, arg)
			}
			switch key {
			case "suspect":
				c.SuspectAfter = v
			case "down":
				c.DownAfter = v
			case "hb":
				c.HeartbeatEvery = v
			case "dedup":
				c.XferDedup = int(v)
			}
		case "seed":
			v, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("detect: seed %q must be an unsigned integer", arg)
			}
			c.Seed = v
		default:
			return Config{}, fmt.Errorf("detect: unknown key %q (have suspect, down, hb, dedup, seed)", key)
		}
	}
	return c, nil
}

// Detector tracks per-peer liveness for n processors from traffic
// evidence alone. It is not safe for concurrent use; the sequential
// balancer phase drives it.
type Detector struct {
	cfg       Config
	n         int
	lastHeard []int64
	state     []State
	offset    []int64 // per-processor heartbeat stagger in [0, HeartbeatEvery)
	rng       *xrand.Stream
	// nextCheck is the earliest step at which any Alive or Suspected
	// peer can cross its deadline; Tick before it is a no-op.
	nextCheck int64

	suspicions   int64
	readmissions int64
	confirmed    int64
}

// New builds a detector for n processors. Every peer starts Alive with
// a grace period of one full deadline (lastHeard = 0).
func New(n int, cfg Config) (*Detector, error) {
	if n < 1 {
		return nil, fmt.Errorf("detect: need n >= 1, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:       cfg,
		n:         n,
		lastHeard: make([]int64, n),
		state:     make([]State, n),
		offset:    make([]int64, n),
		rng:       xrand.New(cfg.Seed ^ 0xdead11e5),
	}
	for p := range d.offset {
		d.offset[p] = int64(d.rng.Intn(int(cfg.HeartbeatEvery)))
	}
	return d, nil
}

// Config returns the tuning in effect.
func (d *Detector) Config() Config { return d.cfg }

// Heard records fresh traffic from peer p at step now: the deadline
// resets and a suspected or down peer is re-admitted immediately.
func (d *Detector) Heard(p int32, now int64) {
	if p < 0 || int(p) >= d.n {
		return
	}
	if now > d.lastHeard[p] {
		d.lastHeard[p] = now
	}
	if d.state[p] != Alive {
		d.state[p] = Alive
		d.readmissions++
		if due := d.lastHeard[p] + d.cfg.SuspectAfter + 1; due < d.nextCheck {
			d.nextCheck = due
		}
	}
}

// Tick advances the deadline sweep to step now: peers silent past
// SuspectAfter become Suspected, past DownAfter become Down. Call once
// per step after delivering traffic. A call before the earliest
// possible deadline returns at once: Heard only ever postpones a
// deadline, except on re-admission, which pulls nextCheck in.
func (d *Detector) Tick(now int64) {
	if now < d.nextCheck {
		return
	}
	next := int64(math.MaxInt64)
	for p := range d.state {
		silence := now - d.lastHeard[p]
		switch {
		case silence > d.cfg.DownAfter:
			if d.state[p] == Alive {
				d.suspicions++
			}
			if d.state[p] != Down {
				d.confirmed++
				d.state[p] = Down
			}
		case silence > d.cfg.SuspectAfter:
			if d.state[p] == Alive {
				d.suspicions++
				d.state[p] = Suspected
			}
		}
		due := int64(math.MaxInt64)
		switch d.state[p] {
		case Alive:
			due = d.lastHeard[p] + d.cfg.SuspectAfter + 1
		case Suspected:
			due = d.lastHeard[p] + d.cfg.DownAfter + 1
		}
		next = min(next, due)
	}
	d.nextCheck = next
}

// State returns the current verdict for peer p (Alive out of range —
// the detector never condemns a peer it cannot observe).
func (d *Detector) State(p int32) State {
	if p < 0 || int(p) >= d.n {
		return Alive
	}
	return d.state[p]
}

// Suspected reports whether p is Suspected or Down — the single
// predicate protocol decisions gate on.
func (d *Detector) Suspected(p int32) bool { return d.State(p) != Alive }

// Due reports whether processor p's staggered heartbeat falls on step
// now.
func (d *Detector) Due(p int32, now int64) bool {
	if p < 0 || int(p) >= d.n {
		return false
	}
	return (now+d.offset[p])%d.cfg.HeartbeatEvery == 0
}

// Target draws a uniformly random heartbeat recipient other than p.
// Calls consume the detector's seeded stream, so a fixed call sequence
// replays identically.
func (d *Detector) Target(p int32) int32 {
	if d.n == 1 {
		return p
	}
	t := d.rng.Intn(d.n - 1)
	if t >= int(p) {
		t++
	}
	return int32(t)
}

// Suspicions returns the number of Alive -> Suspected (or direct
// Alive -> Down) transitions so far.
func (d *Detector) Suspicions() int64 { return d.suspicions }

// Readmissions returns the number of Suspected/Down -> Alive
// transitions caused by fresh traffic.
func (d *Detector) Readmissions() int64 { return d.readmissions }

// ConfirmedDown returns the number of -> Down transitions so far.
func (d *Detector) ConfirmedDown() int64 { return d.confirmed }

// Counts returns the current population per state.
func (d *Detector) Counts() (alive, suspected, down int) {
	for _, s := range d.state {
		switch s {
		case Alive:
			alive++
		case Suspected:
			suspected++
		default:
			down++
		}
	}
	return
}
