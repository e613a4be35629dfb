#!/usr/bin/env bash
# Builds the sliced daemon and the benchmark program from this checkout
# into .bench_build/, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash benchsliced/run.sh --workload hot-hit --seed 1 --seconds 15 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Keep the toolchain's build cache and scratch files inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -o "$out/sliced" ./cmd/sliced
go -C benchsliced build -o "$out/benchsliced" .
exec "$out/benchsliced" -sliced "$out/sliced" -out "$out" "$@"
