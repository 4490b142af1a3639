#!/usr/bin/env bash
# Entry point of the repository benchmark. It builds the benchmark program
# with every Go cache and temporary directory kept under .bench_build in the
# checkout, then runs it from the checkout root with the arguments given
# here, e.g.
#
#   bash bench/run.sh --workload inproc-light --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh -seed 1 -out .bench_build/out   # all four, interleaved
#
# See bench/README.md for the workloads, the metrics and the other modes.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/dip-benchmark" .
cd "$root"
exec "$build/dip-benchmark" "$@"
