#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the driver's
# arguments. Everything the toolchain writes — build cache included — stays
# under .bench_build/, so a run reads and writes only inside its checkout.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload ctl_small --seed 1 --seconds 20 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
