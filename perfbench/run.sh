#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs one
# workload; every argument is passed on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload letter-repair --seed 1 --seconds 15 --trace 0
#
# All build output, caches and trace files stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --trace-dir "$build" "$@"
