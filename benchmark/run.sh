#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. The Go build cache and temporary files stay under
# .bench_build/, so nothing outside the checkout is written. The build is
# skipped when no Go source is newer than the binary.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
bin="$build/webdis-benchmark"
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$build/tmp"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
		go build -o "$bin" ./benchmark
fi
exec "$bin" "$@"
