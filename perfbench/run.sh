#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload pls-tcp --seed 1 --seconds 30 --trace 0
#
# Build outputs, generated inputs and spans stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
# Keep the toolchain's cache, module and config directories in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/run" "$@"
