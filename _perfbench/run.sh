#!/usr/bin/env bash
# Builds the eTrain benchmark from the source tree around it and runs it.
#
#   bash _perfbench/run.sh --workload fleet-3g --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact and cache goes under
# .bench_build/ in the current directory.
set -euo pipefail

build=$(pwd)/.bench_build
mkdir -p "$build"

export GOTOOLCHAIN=local
export GOFLAGS=
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTELEMETRY=off
export XDG_CONFIG_HOME=$build/config
export XDG_CACHE_HOME=$build/cache
export PERFBENCH_OUT=$build

go -C _perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
