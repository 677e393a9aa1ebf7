#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload fig5-micro --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build. The
# build's output goes to standard error, so the benchmark's JSON result
# stays the last line of standard output.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
go -C bench build -o "$out/stashbench" . >&2
exec "$out/stashbench" "$@"
