#!/bin/sh
# The driver's entry point, run from the root of a checkout:
#
#   sh benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source into the checkout's build directory (Go's
# build cache included, so nothing is written outside the checkout), then runs
# it there. Equivalent to `go run ./benchmark <args>` apart from where the
# build products go. Fails, printing no result, where there is no module to
# build — e.g. a directory holding only BENCHMARK.json and benchmark/.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/cafbench" ./benchmark
exec "$out/cafbench" "$@"
