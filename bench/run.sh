#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
# Everything the build writes (binary, Go build cache, Go's own state)
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/lardbench" .)
exec "$build/lardbench" "$@"
