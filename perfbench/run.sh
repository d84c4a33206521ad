#!/usr/bin/env bash
# Builds perfbench from source in this checkout and runs it; every argument
# passes through (see perfbench/main.go). Run it from the repository root:
#
#   bash perfbench/run.sh --workload wear-zipf --seed 7 --seconds 55 --trace 0
#
# Build output, the Go build cache and benchmark scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
