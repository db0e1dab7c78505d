#!/usr/bin/env bash
# Builds the opaq benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash opaqbench/run.sh --workload fleet_mixed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C "$root/opaqbench" build -o "$out/opaqbench" .
exec "$out/opaqbench" "$@"
