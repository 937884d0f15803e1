#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
# Run from the repository root:
#
#	bash _benchmark/run.sh --workload fig6-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ in
# the repository root (Go build cache, the binary, traces, run details).
# The benchmark module imports the repository module through a relative
# replace directive, so outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/mkperf" .) 1>&2
cd "$root"
exec "$build/mkperf" -out "$build" "$@"
