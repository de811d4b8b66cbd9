#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the arguments
# given. Everything the go command writes (build cache, temp files,
# module cache, its own telemetry counters) is pointed below
# .bench_build/ too, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
