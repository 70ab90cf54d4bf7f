#!/usr/bin/env bash
# Builds the benchmark (perf/, its own Go module over the repository's
# packages) from source and runs it with the given arguments. Run it from
# the repository root:
#
#   bash perf/run.sh --workload int-live --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays in .bench_build: the Go
# build cache, the binary, temporary traces and traced-run output.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -C perf -buildvcs=false -o "$out/elsqperf" .
exec "$out/elsqperf" "$@"
