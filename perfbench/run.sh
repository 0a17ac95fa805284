#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload cycle-modis-tcp --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. The Go build cache, the binary and trace
# output stay under .bench_build/ in that checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
