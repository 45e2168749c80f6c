#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload arbmis --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary, the
# worker sockets and the spans files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# A relative temp dir keeps the fleet's unix socket path short.
TMPDIR=.bench_build/tmp exec "$out/perfbench" --spans .bench_build/spans "$@"
