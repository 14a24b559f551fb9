#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload fleet-skew --seed 3 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout, so a run writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go -C "$root/bench" build -buildvcs=false -o "$out/plbbench.$$" .
mv -f "$out/plbbench.$$" "$out/plbbench"
cd "$root"
exec "$out/plbbench" "$@"
