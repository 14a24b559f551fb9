# Convenience targets; everything is plain `go` underneath.

GO ?= go
BENCH_JSON ?= BENCH_plb.json

.PHONY: all build test race bench bench-smoke bench-compare bench-check bench-pair experiments experiments-quick faults shootout frontier daemon-smoke chaos-smoke lint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench prints the usual go-test benchmark text and additionally emits
# a machine-readable $(BENCH_JSON) (ns/op, B/op, allocs/op per
# benchmark) via cmd/benchjson.
bench:
	$(GO) test -bench=. -benchmem ./... > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) < bench.out
	@rm -f bench.out

# bench-smoke is the CI variant: every benchmark once, same JSON
# artifact.
bench-smoke:
	$(GO) test -run XXX -bench=. -benchtime=1x -benchmem ./... > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) < bench.out
	@rm -f bench.out

# bench-compare diffs a fresh benchmark JSON (BENCH_NEW, default the
# bench-smoke output) against the committed baseline. Warn-only: it
# prints the delta table and flags >15% ns/op regressions without
# failing, so the committed baseline only moves deliberately.
BENCH_NEW ?= $(BENCH_JSON)
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_plb.json $(BENCH_NEW)

# bench-check vets and tests the end-to-end benchmark (bench/, its own
# Go module, so `go test ./...` never builds it): the toy-scale smoke
# of every workload runs in seconds, so an API change that breaks the
# benchmark fails here instead of silently.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-pair runs the end-to-end benchmark on one workload for BASE (a
# git revision, built in a worktree under .bench_build/) and the working
# tree, alternating sides pair by pair; runs loadgen.late invalidates
# are re-run and counted, and the report ends with `bench compare`. A
# gain claim needs PAIRS=10. PAIRS, SEED and SECONDS default in
# scripts/bench-pair.sh.
bench-pair:
	BASE='$(BASE)' WORKLOAD='$(WORKLOAD)' PAIRS='$(PAIRS)' SEED='$(SEED)' RUN_SECONDS='$(SECONDS)' \
		bash scripts/bench-pair.sh

# Full reproduction of the paper's evaluation (laptop-minutes).
experiments:
	$(GO) run ./cmd/experiments

# Same tables at reduced scale (seconds).
experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Fault-injection smoke: the protocol degradation curve (E21), the
# node-runtime sojourn degradation table (E23), the failure-detector
# tuning sweep (E24) and the elastic-membership autoscaler (E25) at
# quick scale — exercises the lossy/crash/straggler/flap paths, the
# suspicion machinery, the acked-transfer retry pump, and the
# join/drain custody handoff end to end.
faults:
	$(GO) run ./cmd/experiments -run E21,E23,E24,E25 -quick

# Policy shootout: every registered policy under the workload grammar
# (E26) at quick scale. Override the line-up with
# `make shootout POLICIES=bfm98,rr,...`.
POLICIES ?=
shootout:
	$(GO) run ./cmd/experiments -run E26 -quick $(if $(POLICIES),-policies $(POLICIES))

# Frontier run: the sparse event-driven engine at full scale (E27,
# n=2^20..2^27). Needs ~9 GB RAM at the top size: the sparse machine
# holds 68 B per processor (272 MB of live heap measured at 2^22),
# 8.5 GiB at 2^27. Runs for minutes; `make experiments-quick` covers
# the same table in seconds.
frontier:
	$(GO) run ./cmd/experiments -run E27

# Daemon smoke: build the real lbsimd binary, boot a UDS fleet of
# daemon processes plus a load-generator client, bounce one daemon
# mid-run (clean drain + reconnect), and audit exact task conservation
# across every process incarnation. A TCP loopback variant rides along.
daemon-smoke:
	$(GO) test ./cmd/lbsimd -run 'TestDaemonSmoke' -count=1 -v

# Chaos smoke: fault injection over real sockets, conservation audited
# to exact ledger equality. Three legs: the in-process UDS fleet under
# the combined lossy+partition+SIGKILL plan, the real-process kill/
# restart bounce (lbsimd SIGKILLed pre-injection, relaunched with
# -epoch 2 under a lossy link plan), and the E28 scenario table at
# quick scale.
chaos-smoke:
	$(GO) test ./internal/integration -run 'TestSockChaosLedgerMatrix/lossy.partition.crash' -count=1 -v
	$(GO) test ./cmd/lbsimd -run 'TestDaemonChaosKillRestart' -count=1 -v
	$(GO) run ./cmd/experiments -run E28 -quick

# lint fails (not just lists) on unformatted files, then vets, then
# fails on exported names under internal/ that no non-test file uses
# (TestNoDeadExports in the root package).
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -count=1 -run '^TestNoDeadExports$$' .

clean:
	$(GO) clean ./...
	@rm -f bench.out $(BENCH_JSON)
