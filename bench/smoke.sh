#!/usr/bin/env bash
# Smoke of all four workloads for CI: one second measured per workload, one
# set-up, every correctness gate, no traced pass. Exits non-zero if any
# workload is incorrect.
set -euo pipefail
cd "$(dirname "$0")/.."
exec bash bench/run.sh run -quick "$@"
