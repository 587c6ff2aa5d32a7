#!/usr/bin/env bash
# Builds the load harness and tuneserve from the checkout this script sits
# in, then runs the harness. Run from the checkout root:
#
#   bash perfbench/run.sh --workload solo --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and every run's scratch files stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/tuneserve" ./cmd/tuneserve
exec "$out/perfbench" -tuneserve "$out/tuneserve" -work "$out" "$@"
