#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with the
# given arguments. The Go build cache and the binary live under .bench_build/
# in the checkout, so nothing is read or written outside it.
set -euo pipefail
root="$(pwd)"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout (no go.mod or internal/ here)" >&2
	exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry counters
# under the build directory as well.
GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/adbench" ./bench
exec "$build/adbench" "$@"
