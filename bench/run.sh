#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# root of a checkout: the Go build cache, Go's own configuration, temporary
# files and the binary all stay inside the checkout, under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$out/poiesis-bench" .
exec "$out/poiesis-bench" "$@"
