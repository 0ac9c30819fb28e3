#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload train --seed 1 --seconds 15 --trace 0
#
# Everything the build writes — the binary, Go's build cache, its module
# path and its temporary files — goes under .bench_build/ at the root of
# the checkout, so a run touches nothing outside the checkout. The first
# run in a checkout compiles the standard library into that cache; later
# runs only check it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
