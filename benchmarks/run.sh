#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the build writes — compiler cache, temporaries, the
# binary — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$build/mlaas-benchmark" ./benchmarks

exec "$build/mlaas-benchmark" "$@"
