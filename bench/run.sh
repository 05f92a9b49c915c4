#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments
# (see bench/main.go). Everything the build writes - the Go build cache,
# temporary files and the binary - stays in .bench_build/ at the
# repository root; the results go to bench/out/.
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload dense-ave --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"

export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false

cd "$root"
go -C bench build -o "$build/drrbench" .
exec "$build/drrbench" "$@"
