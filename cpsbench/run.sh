#!/usr/bin/env bash
# Builds the cpsbench binary from source and runs it with the given
# arguments. Run from the root of the repository:
#
#   bash cpsbench/run.sh --workload sliding_windows --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (Go build cache, temporary files, the
# binary, span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/cpsbench" && go build -o "$out/cpsbench" .)
exec "$out/cpsbench" "$@"
