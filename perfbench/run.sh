#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the root of
# the repository:
#
#	bash perfbench/run.sh --workload fillrandom --seed 1 --seconds 8 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data directories
# all live under $CARGO_TARGET_DIR (default .bench_build) inside the
# repository, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --workdir "$out" "$@"
