#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload paper-words --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache
# and the benchmark's scratch files stay under .bench_build/ in the
# current directory. The build fails, and the script exits non-zero
# without printing a result, when the repository sources are absent.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/modcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
