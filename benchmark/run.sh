#!/usr/bin/env bash
# Builds the gpufreqd benchmark and runs it from the repository root with
# the given arguments (see benchmark/README.md). Every build artifact, the
# Go build cache included, stays inside the checkout under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
