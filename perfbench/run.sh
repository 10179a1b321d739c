#!/usr/bin/env bash
# Builds perfbench from this checkout's sources into .bench_build and
# runs it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload pod32-elephants --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches live under .bench_build too, so the
# benchmark writes nothing outside the checkout and needs no network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
