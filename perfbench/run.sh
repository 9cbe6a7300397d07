#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload synth-wide --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run leave behind stays in .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the root of a micco checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
