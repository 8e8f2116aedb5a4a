#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given flags. Everything the build leaves behind goes under .bench_build at
# the root of the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its counters there
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root"
go build -C benchmark -o "$build/fusion-benchmark" .
exec "$build/fusion-benchmark" "$@"
