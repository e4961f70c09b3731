#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. The build output and the go build cache live under .bench_build
# so a run reads and writes nothing outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
