#!/usr/bin/env bash
# Paired end-to-end benchmark: a git revision (the base) against the
# working tree (the head), on one workload of bench/.
#
#   make bench-pair BASE=<rev> WORKLOAD=fleet-uniform PAIRS=10 SEED=1 SECONDS=15
#   BASE=<rev> WORKLOAD=fleet-uniform bash scripts/bench-pair.sh
#
# Variables: BASE and WORKLOAD (required), PAIRS (10), SEED (1) and
# RUN_SECONDS (15; the Makefile's SECONDS, renamed because bash keeps
# its own SECONDS).
#
# The base is checked out into a git worktree under .bench_build/ and
# removed on exit. Each pair runs `bash bench/run.sh` once per side,
# untraced, and alternates which side goes first, so slow drift of the
# host lands on both sides alike. A run that fails the loadgen.late
# gate (the load generator fell behind its schedule, which says the
# host was short of CPU, not that the code is wrong) reports no
# metrics; its slot is re-run, at most 4 times, and those runs are
# counted by side. Any other failure, a correctness check included,
# prints the run's log and stops the script with a non-zero status.
# The script prints a per-pair table of cpu_us_per_task and ends with
# `bench compare` over every end-to-end metric. Results stay in
# .bench_build/pairs/<workload>-seed<seed> for later comparisons.
set -euo pipefail

: "${BASE:?BASE=<git revision> is required}"
: "${WORKLOAD:?WORKLOAD=<bench workload> is required}"
PAIRS=${PAIRS:-10}
SEED=${SEED:-1}
secs=${RUN_SECONDS:-15}
metric=cpu_us_per_task
reruns=4 # re-runs a slot may take after loadgen.late invalidates it

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
build="$root/.bench_build"
out="$build/pairs/$WORKLOAD-seed$SEED"
wt="$build/base-$$"
mkdir -p "$build" "$out"
rm -f "$out"/base-*.json "$out"/head-*.json

cleanup() {
	git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"
	git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$wt" "$BASE"
base_rev="$(git -C "$wt" rev-parse --short HEAD)"

# value FILE NAME prints one end-to-end metric from a results file (the
# indented JSON bench -o writes).
value() {
	grep -A1 "\"$2\": {" "$1" | sed -n 's/.*"value": \([^,]*\),*/\1/p' | head -1
}

declare -A late=([base]=0 [head]=0)
# run SIDE DIR FILE runs one valid measurement of DIR into FILE,
# re-running the slot while loadgen.late invalidates it.
run() {
	local side=$1 dir=$2 file=$3 log="$out/$1.log" n
	for ((n = 0; ; n++)); do
		if bash "$dir/bench/run.sh" --workload "$WORKLOAD" --seed "$SEED" \
			--seconds "$secs" --trace 0 -o "$file.tmp" >"$log" 2>&1; then
			mv "$file.tmp" "$file"
			return 0
		fi
		if ! grep -q 'check loadgen.late failed' "$log"; then
			echo "bench-pair: $side run failed:" >&2
			cat "$log" >&2
			exit 1
		fi
		late[$side]=$((late[$side] + 1))
		if ((n == reruns)); then
			echo "bench-pair: $side slot failed loadgen.late in all $((reruns + 1)) runs" >&2
			exit 1
		fi
		echo "  $side run failed loadgen.late, re-run $((n + 1)) of at most $reruns"
	done
}

echo "bench-pair: $WORKLOAD seed $SEED, ${secs}s windows, $PAIRS pairs"
echo "  base $BASE ($base_rev), head = working tree of $(git -C "$root" rev-parse --short HEAD)"
rows=()
for ((i = 1; i <= PAIRS; i++)); do
	k=$(printf %02d "$i")
	if ((i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		if [ "$side" = base ]; then dir=$wt; else dir=$root; fi
		run "$side" "$dir" "$out/$side-$k.json"
	done
	b="$(value "$out/base-$k.json" "$metric")"
	h="$(value "$out/head-$k.json" "$metric")"
	row="$(awk -v i="$i" -v f="${order%% *}" -v b="$b" -v h="$h" \
		'BEGIN { printf "%4d  %-5s %12.4g %12.4g %+8.1f%%", i, f, b, h, 100 * (h - b) / b }')"
	rows+=("$row")
	echo "$row"
done

echo
echo "$metric per pair ($WORKLOAD, seed $SEED):"
printf '%4s  %-5s %12s %12s %9s\n' pair first base head change
printf '%s\n' "${rows[@]}"
echo
echo "runs loadgen.late invalidated and bench-pair re-ran: base ${late[base]}, head ${late[head]}"
echo
# The same build environment as bench/run.sh, so nothing lands outside
# .bench_build/.
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
	go -C "$root/bench" run . compare -base "$out/base-*.json" -head "$out/head-*.json"
