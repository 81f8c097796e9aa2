#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload fio_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build and module caches) stays
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
