#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload routed-batch --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product and the Go build
# cache stay under .bench_build/ in that root, so the benchmark reads
# and writes nothing outside the checkout. The benchmark is a module of
# its own (perfbench/go.mod) that replaces the repository module with
# ../, so it always measures the code it is checked out next to.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Stop-the-world collections: with one processor, a concurrent mark
# phase advances on wall-clock time slices, so how far the heap
# overshoots its goal — and with it peak_rss_mib — would depend on how
# often the host preempts the process. Stopping the world makes the
# heap's growth a function of the allocations alone.
GODEBUG=gcstoptheworld=1 exec "$out/perfbench" "$@"
