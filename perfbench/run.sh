#!/usr/bin/env bash
# Builds flockd and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload words-adhoc --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory, the Go build cache included.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
go build -o "$out/flockd" ./cmd/flockd
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" -flockd "$out/flockd" -build-dir "$out" "$@"
