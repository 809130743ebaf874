#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything it writes — the build cache, the binary,
# result.json and trace.json — stays under benchmark/out in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=auto
: "${HOME:=$out/home}" # a bare environment has none, and go needs one for GOPATH
export HOME
go build -o "$out/bench" ./benchmark
exec "$out/bench" "$@"
