#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; all arguments go to the benchmark, e.g.
#
#   sh perfledger/run.sh --workload docs-inproc --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache and run state stay in .bench_build.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfledger && go build -o "$build/perfledger" .)
exec "$build/perfledger" "$@"
