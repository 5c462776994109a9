#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the current directory (the
# repository root) and runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload warm-rerun --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches live under .bench_build too, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
