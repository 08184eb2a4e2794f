#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the arguments given, e.g.
#   bash bench/run.sh --workload dt_shuffle448 --seed 1 --seconds 10 --trace 0
# Everything the build writes (binary, Go build cache) stays inside the
# checkout. Run from the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/smpibench" .)
exec "$build/smpibench" "$@"
