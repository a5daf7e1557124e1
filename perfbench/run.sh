#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ar-walk --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, trace
# dumps and the durable workload's data directory all live under
# .bench_build/perfbench, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
