#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache and
# temp files included, so nothing is written outside the checkout) and
# runs it with the given arguments from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/odabench" .)
cd "$root"
exec "$build/odabench" "$@"
