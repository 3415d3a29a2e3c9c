#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example
#
#   bash benchmark/run.sh --workload fixpoint --seed 1 --seconds 20 --trace 0
#
# With no --workload it runs all five workloads, each in its own process.
# The binary, the Go build cache and the traces of traced runs stay under
# .bench_build/ in the current directory; nothing is fetched from the network.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$build/paramra-bench" .
exec "$build/paramra-bench" "$@"
