#!/usr/bin/env bash
# Entry point of the repository benchmark (the command in BENCHMARK.json):
# builds the driver from this checkout and hands it the arguments.
#
#   bash bench/run.sh --workload hot_set --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go's build cache included) and bench/out/; nothing is
# fetched. The driver builds cmd/serve itself with the same settings.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
