#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything the build writes (the Go
# build cache included) lands in .bench_build/ under that root, so the run
# reads and writes nothing outside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOBIN

go build -C "$here" -o "$build/xpbench" ./cmd/xpbench
cd "$root"
exec "$build/xpbench" "$@"
