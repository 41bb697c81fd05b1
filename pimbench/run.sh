#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash pimbench/run.sh --workload stm-grid --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout, and nothing is
# fetched: the module has no dependencies outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/pimbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd "$root/pimbench" && go build -o "$out/pimbench" .)
exec "$out/pimbench" "$@"
