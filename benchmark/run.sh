#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes — build cache, binary, data directories, results —
# stays inside the checkout: under .bench_build (or $CARGO_TARGET_DIR, which
# the benchmark driver points there) and benchmark/out.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go build -C "$here" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/wren-benchmark" .
exec "$build/wren-benchmark" "$@"
