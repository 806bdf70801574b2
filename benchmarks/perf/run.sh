#!/usr/bin/env bash
# BENCHMARK.json's command: build the harness from source inside the
# checkout (binary and Go build cache under .bench_build/) and run it
# with the driver's arguments. Run it from the repository root.
set -euo pipefail
test -f go.mod || { echo "run.sh: run from the repository root" >&2; exit 1; }
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
go build -o "$build/perf" ./benchmarks/perf
# MADV_FREE instead of MADV_DONTNEED when the Go runtime hands idle heap
# back: without it the scavenger's release/refault cycle moves per-query
# time by ±20 % from one second to the next on this VM (see README.md).
export GODEBUG=madvdontneed=0
exec "$build/perf" -out "$build/perf-out" "$@"
