#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds ./bench from source into the
# checkout's .bench_build — which also holds the Go build cache, so nothing
# is written outside the checkout — and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" -workdir "$out" "$@"
