#!/usr/bin/env bash
# Builds vpbench from the source tree it sits in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/vpbench/run.sh --workload cold-spec --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the binary)
# goes under .bench_build/ in the working directory.
set -euo pipefail

out="$PWD/.bench_build/vpbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/vpbench" .)
exec "$out/vpbench" "$@"
