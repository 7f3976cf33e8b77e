#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload solo-sync --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (binary and
# Go build cache) stays under .bench_build/ in that root, and GOPROXY=off
# keeps the build from reaching for the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2

exec "$out/perfbench" "$@"
