#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload suite-static --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the repository
# (or under $CARGO_TARGET_DIR when that is set); no toolchain or module is
# downloaded.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

# Build into the output directory before running, so the run is timed on a
# compiled binary. A checkout without the program's sources fails here.
(cd benchmark && go build -o "$out/qed2-benchmark" .)
exec "$out/qed2-benchmark" "$@"
