#!/usr/bin/env bash
# Builds the benchmark and the wormholed daemon from this checkout, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload knee --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, checkpoints, daemon state
# and span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"

# Keep the toolchain's caches, telemetry and configuration inside the
# checkout, and never let it fetch anything.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
go -C "$root/perfbench" build -o "$out/wormholed" wormhole/cmd/wormholed

exec "$out/perfbench" "$@"
