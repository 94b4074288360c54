#!/usr/bin/env bash
# Builds mvbench from this checkout and runs it with the given arguments:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Everything the build and the run write
# stays inside the checkout, under .bench_build/ and bench/out/: the Go
# build cache and temp dir are pointed there, so the first run in a fresh
# checkout compiles the standard library too (about twenty seconds here) and
# later runs only re-check it.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a checkout (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$build/mvbench" .
exec "$build/mvbench" "$@"
