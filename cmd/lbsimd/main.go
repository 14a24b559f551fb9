// Command lbsimd hosts load-balancing processors behind a real socket
// transport — the daemon deployment of the protocol that lbsim's
// sockets backend runs in-process. A fleet is a handful of lbsimd
// processes (each hosting one or more processor ids) plus, optionally,
// one lbsimd -loadgen client injecting a workload-grammar spec.
//
// Daemon mode:
//
//	lbsimd -listen unix:/tmp/plb/ep0.sock -peers peers.txt -ids 0,1 -n 6
//	lbsimd -listen tcp:127.0.0.1:7600 -peers peers.txt -ids 2,3 -n 6
//
// The peers file holds one "id address" line per processor (see
// socktrans.LoadPeers); ids absent from it are learned from
// handshakes. On SIGTERM or SIGINT the daemon drains: it stops
// generating, ships its queues to the rest of the fleet, waits for
// acknowledgements, announces departure, then prints a final JSON
// status array to stdout and exits 0. Task conservation across a
// fleet is exact at quiescence: summing the final statuses,
// generated + injected == completed + queued when every drain was
// clean (inflight 0).
//
// Load-generator mode:
//
//	lbsimd -loadgen -peers peers.txt -n 6 -model "workload:arrivals=bursty,rate=0.4" -ticks 500
//
// replays the spec against the fleet over acknowledged transfers,
// probes every daemon for its status, and prints a JSON summary with
// the same wait/locality columns the simulation backends report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"plb/internal/cli"
	"plb/internal/faults"
	"plb/internal/gen"
	"plb/internal/node"
	"plb/internal/stats"
	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/transport/chaostrans"
	"plb/internal/transport/socktrans"
)

func main() {
	var (
		listenF  = flag.String("listen", "", "daemon listen address, scheme-prefixed: unix:/path/ep.sock or tcp:host:port")
		peersF   = flag.String("peers", "", "peers file, one \"id address\" line per processor (socktrans.LoadPeers)")
		idsF     = flag.String("ids", "", "comma-separated processor ids hosted by this daemon")
		n        = flag.Int("n", 0, "total processor id space the fleet spans")
		seed     = flag.Uint64("seed", 1, "random seed")
		model    = flag.String("model", "", "workload model or workload: grammar spec (daemon: local generation, default none; -loadgen: the replayed spec, default single)")
		tick     = flag.Duration("tick", time.Millisecond, "wall-clock tick cadence")
		scale    = flag.Int("scale", 1, "multiplier on T=(log log n)^2 in the heavy threshold")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "how long a drain (or -loadgen settle) may take before giving up")
		loadgen  = flag.Bool("loadgen", false, "run as a load-generator client instead of a daemon")
		ticks    = flag.Int("ticks", 500, "-loadgen: generation ticks to replay")
		quiet    = flag.Bool("quiet", false, "suppress connection-management logging on stderr")
		faultsF  = flag.String("faults", "", "link-fault plan executed at this daemon's frame boundary (lossy/dup/delay/partition/straggle/seed); crash and flap schedules are rejected — kill the process")
		epoch    = flag.Int("epoch", 1, "incarnation epoch: a restarted daemon must pass its previous epoch + 1 so the fleet's dedup and loss accounting tell the incarnations apart")
	)
	flag.Parse()

	if *n < 1 {
		fail(fmt.Errorf("lbsimd: -n is required (total processor count)"))
	}
	peers := map[int32]string{}
	if *peersF != "" {
		var err error
		if peers, err = socktrans.LoadPeers(*peersF); err != nil {
			fail(err)
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lbsimd: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	if *loadgen {
		if *faultsF != "" {
			fail(fmt.Errorf("lbsimd: -faults with -loadgen: chaos belongs on the daemons under test, not the measuring client"))
		}
		runLoadgen(peers, *n, *seed, *model, *tick, *ticks, *drainFor, logf)
		return
	}
	runDaemon(*listenF, peers, *idsF, *n, *seed, *model, *tick, *scale, *drainFor, *faultsF, *epoch, logf)
}

// splitListen parses the scheme-prefixed -listen form into the
// (network, address) pair socktrans takes.
func splitListen(s string) (network, addr string, err error) {
	i := strings.Index(s, ":")
	if i < 0 {
		return "", "", fmt.Errorf("lbsimd: -listen %q: want unix:/path or tcp:host:port", s)
	}
	network, addr = s[:i], s[i+1:]
	if network != "unix" && network != "tcp" {
		return "", "", fmt.Errorf("lbsimd: -listen scheme %q (have unix, tcp)", network)
	}
	if addr == "" {
		return "", "", fmt.Errorf("lbsimd: -listen %q has an empty address", s)
	}
	return network, addr, nil
}

func parseIDs(s string, n int) ([]int32, error) {
	if s == "" {
		return nil, fmt.Errorf("lbsimd: -ids is required for a daemon (comma-separated processor ids)")
	}
	var ids []int32
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 || v >= n {
			return nil, fmt.Errorf("lbsimd: -ids entry %q: want an integer in [0, %d)", f, n)
		}
		ids = append(ids, int32(v))
	}
	return ids, nil
}

func runDaemon(listen string, peers map[int32]string, idsF string, n int, seed uint64, model string, tick time.Duration, scale int, drainFor time.Duration, faultSpec string, epoch int, logf func(string, ...any)) {
	network, addr, err := splitListen(listen)
	if err != nil {
		fail(err)
	}
	ids, err := parseIDs(idsF, n)
	if err != nil {
		fail(err)
	}
	if epoch < 1 || epoch > 255 {
		fail(fmt.Errorf("lbsimd: -epoch %d: want [1, 255] (restart with previous epoch + 1)", epoch))
	}
	sock, err := socktrans.New(socktrans.Config{
		Network: network, Listen: addr, N: n, Local: ids, Peers: peers, Logf: logf,
		Seed: seed,
	})
	if err != nil {
		fail(err)
	}
	var tr transport.Transport = sock
	defer func() { tr.Close() }()
	if faultSpec != "" {
		plan, perr := faults.ParsePlan(faultSpec)
		if perr != nil {
			fail(perr)
		}
		link, proc, serr := chaostrans.SplitPlan(plan)
		if serr != nil {
			fail(serr)
		}
		if proc.Active() {
			fail(fmt.Errorf("lbsimd: -faults carries a crash/flap schedule; a real daemon dies by SIGKILL — kill this process and restart it with -epoch %d", epoch+1))
		}
		if link.Seed == 0 {
			link.Seed = seed
		}
		inj, ierr := faults.NewInjector(n, link)
		if ierr != nil {
			fail(ierr)
		}
		// A restarted daemon shares no clock with its previous life, so
		// its fault clock starts at 0.
		tr = chaostrans.Wrap(sock, inj, 0)
	}

	cfg := node.Config{N: n, Seed: seed, Heavy: 2 * stats.PaperT(n) * max(scale, 1),
		// Chaos runs (and restarted incarnations, whose books a
		// conservation audit needs) keep the forensic transfer log.
		Epoch: epoch, Ledger: faultSpec != "" || epoch > 1}
	if model != "" {
		if cfg.Model, cfg.Weigher, err = cli.BuildWorkload(model, n, seed); err != nil {
			fail(err)
		}
		if _, ok := cfg.Model.(gen.StepAware); ok {
			fail(fmt.Errorf("lbsimd: -model %q plans against fleet-wide loads each step; a daemon only sees its own processors — use a non-adversarial model or a workload: spec (the in-process fleet, lbsim -backend sockets, supports it)", model))
		}
	}
	var nodes []*node.Node
	for _, id := range ids {
		c := cfg
		c.ID = id
		nd, err := node.New(tr, c)
		if err != nil {
			fail(err)
		}
		nodes = append(nodes, nd)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	draining := false
	var deadline time.Time
	for {
		select {
		case <-sigc:
			if !draining {
				draining = true
				deadline = time.Now().Add(drainFor)
				for _, nd := range nodes {
					nd.Drain()
				}
				if logf != nil {
					logf("draining %d processors", len(nodes))
				}
			}
		case <-ticker.C:
			tr.Deliver()
			done := true
			for _, nd := range nodes {
				nd.Tick()
				done = done && nd.DrainDone()
			}
			if draining && (done || time.Now().After(deadline)) {
				emitStatuses(nodes)
				if !done {
					fail(fmt.Errorf("lbsimd: drain timed out after %v", drainFor))
				}
				return
			}
		}
	}
}

// emitStatuses prints the daemon's final per-processor statuses as a
// JSON array on stdout — the record a fleet harness sums to audit
// conservation.
func emitStatuses(nodes []*node.Node) {
	sts := make([]node.Status, 0, len(nodes))
	for _, nd := range nodes {
		sts = append(sts, nd.Status())
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(sts); err != nil {
		fail(err)
	}
}

// loadgenSummary is the -loadgen JSON report: the client's own
// accounting, the fleet totals merged from probed statuses, and the
// task-lifetime summary with the standard wait/locality columns.
type loadgenSummary struct {
	Generated int64         `json:"generated"`
	Acked     int64         `json:"acked"`
	Totals    node.Status   `json:"totals"`
	Tasks     task.Summary  `json:"tasks"`
	Statuses  []node.Status `json:"statuses"`
}

func runLoadgen(peers map[int32]string, n int, seed uint64, model string, tick time.Duration, ticks int, drainFor time.Duration, logf func(string, ...any)) {
	if len(peers) == 0 {
		fail(fmt.Errorf("lbsimd: -loadgen needs a -peers file to reach the fleet"))
	}
	network := "tcp"
	for _, addr := range peers {
		if !strings.Contains(addr, ":") {
			network = "unix"
		}
		break
	}
	tr, err := socktrans.New(socktrans.Config{
		Network: network, N: n, Local: []int32{node.LoadGenID}, Peers: peers, Logf: logf,
	})
	if err != nil {
		fail(err)
	}
	defer tr.Close()

	if model == "" {
		model = "single"
	}
	mod, _, err := cli.BuildWorkload(model, n, seed)
	if err != nil {
		fail(err)
	}
	g, err := node.NewGen(tr, node.GenConfig{
		N: n, Model: mod, Seed: seed, Ticks: ticks, Pause: tick, Logf: logf,
	})
	if err != nil {
		fail(err)
	}
	if err := g.Run(drainFor); err != nil {
		fail(err)
	}
	sts, err := g.Probe(drainFor)
	if err != nil {
		fail(err)
	}
	sum, tot := node.MergeStatuses(sts)
	out := loadgenSummary{
		Generated: g.Generated(), Acked: g.Acked(),
		Totals: tot, Tasks: sum, Statuses: sts,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
