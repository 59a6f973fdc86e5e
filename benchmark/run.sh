#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the given arguments. Everything the Go toolchain writes (build and
# module caches, temporary files, telemetry, the binary) stays inside the
# checkout, and nothing is fetched.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
