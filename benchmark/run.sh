#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root; the arguments go to the benchmark:
#
#   bash benchmark/run.sh --workload fuzz-v3 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, results ledger)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
go -C "$root/benchmark" build -o "$build/rvbench" .

RVBENCH_COMMAND="bash benchmark/run.sh $*"
RVBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
RVBENCH_SOURCE_SHA256=$(find . -path ./.bench_build -prune -o -type f \
	\( -name '*.go' -o -name go.mod -o -name '*.sh' \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)
export RVBENCH_COMMAND RVBENCH_COMMIT RVBENCH_SOURCE_SHA256
exec "$build/rvbench" "$@"
