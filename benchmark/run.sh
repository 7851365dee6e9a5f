#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash benchmark/run.sh --workload sort-hooks --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build, its Go cache, the go
# command's configuration and telemetry, and the traced run's span files
# stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	go -C benchmark build -o "$out/stintbench" . >&2
exec "$out/stintbench" --out "$out" "$@"
