#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, and the results files.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	GOENV=off GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
