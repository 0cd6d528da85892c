#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it from there with the arguments given. Everything the build writes (Go's
# build cache, temporary files and telemetry counters included) stays inside
# the checkout; nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/msbench" .)
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
cd "$root"
exec "$build/msbench" "$@"
