#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's build directory and
# runs it from the checkout's root. Everything the build and the run write
# stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
# The toolchain's own state (build cache, module cache, telemetry) stays
# in the checkout too.
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
