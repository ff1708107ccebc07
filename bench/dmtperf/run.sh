#!/usr/bin/env bash
# Builds the dmtperf benchmark from source and runs one workload. Run it
# from the root of the repository:
#
#   bash bench/dmtperf/run.sh --workload preq-narrow --seed 1 --seconds 25 --trace 0
#
# The build and everything it caches stay under .bench_build/ in the
# current directory: the Go build cache, the module path and the go
# command's own configuration all point there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

(cd "$root/bench/dmtperf" && go build -o "$out/dmtperf" .)
exec "$out/dmtperf" -out "$out" "$@"
