#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash nanobench/run.sh --workload flood-local --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build in the current directory, or under $CARGO_TARGET_DIR when set.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/nanobench" && go build -o "$out/nanobench" .)
exec "$out/nanobench" "$@"
