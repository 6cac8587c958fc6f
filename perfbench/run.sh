#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-cache --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# under $CARGO_TARGET_DIR when it is set, else under .bench_build, both
# relative to the repository root.  The toolchain is kept offline.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"
