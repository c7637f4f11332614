#!/usr/bin/env bash
# Builds gpuwalkd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-irregular --seed 1 --seconds 12 --trace 0
#
# Everything it writes stays under .bench_build/: the Go build cache,
# the binaries, temp dirs (daemon caches and journals) and, in out/, one
# record per run with its spans and profiles.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$build/gpuwalkd" ./cmd/gpuwalkd
(cd perfbench && go build -o "$build/perfbench" .)
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --gpuwalkd "$build/gpuwalkd" --out "$build/out" --commit "$commit" "$@"
