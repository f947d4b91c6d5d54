#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on (see bench/main.go). Run from the repository root:
#
#   bash bench/run.sh --workload social-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory, the Go build cache included, and the toolchain
# is kept offline: the module has no dependencies to fetch.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
