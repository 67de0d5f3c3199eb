#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload router-compute --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and toolchain state live under
# .bench_build, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export XDG_CONFIG_HOME="$build/config"

go build -C "$root/bench" -o "$build/cosim-bench" .
exec "$build/cosim-bench" "$@"
