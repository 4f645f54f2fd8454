#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload paper-mrng1 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare base.jsonl head.jsonl
#
# bench/ is a Go module of its own, built against the repository's source
# through its replace directive. The binary and everything the go command
# writes (build cache, temporary files, telemetry) stay under
# $CARGO_TARGET_DIR, default .bench_build. cgo is off, so no C compiler
# runs, and the module proxy and toolchain downloads are off, so the build
# never leaves the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$(pwd)/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config CGO_ENABLED=0 GOPROXY=off GOTOOLCHAIN=local

go -C bench build -o "$build/mcbench" .
exec "$build/mcbench" "$@"
