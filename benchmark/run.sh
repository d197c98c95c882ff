#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build the benchmark from
# source, keeping every build artefact inside the checkout, then run it with
# the driver's arguments. `go run ./benchmark` is the same program built in
# the user's own Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/janus-benchmark" ./benchmark
exec "$build/janus-benchmark" "$@"
