#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it sits in and
# runs it with the given arguments (see README.md). Build state stays
# under .bench_build at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
