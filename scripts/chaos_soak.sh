#!/usr/bin/env bash
# Supervised chaos soak over real processes: the CI-facing wrapper around
# cmd/adchaos.
#
# `go test ./internal/chaos` explores seeded failure schedules by the hundred
# over a simulated fleet: one process, a virtual clock, kill = drop the
# shard's serving stack and recover its WAL. This script is the one run that
# checks the simulation's kill against a real one. Two real 2-shard fleets of
# adplatform children run the same workload (chaos.Soak; review rejects a
# quarter of the ads, so it appeals). Fleet A is disturbed on chaos seed 1's
# schedule — the one TestScheduleSeed1Pinned holds to literals — with
# kill -9, SIGSTOP pauses, slowed and partitioned links, while the
# supervisor detects, quarantines, relaunches (WAL recovery), journal-replays
# and digest-gates each failed shard back in. Fleet B replays the operations
# A acknowledged, undisturbed. adchaos exits non-zero unless both end
# byte-identical on the wire-level insights surface, no acknowledged write is
# lost, the fleet heals, and every refusal was typed.
#
# The harness binary (router + supervisor + chaos orchestrator in one
# process) is built with -race: the soak doubles as a concurrency test of the
# coordinator/supervisor/journal interplay under real process churn.
#
# Usage: scripts/chaos_soak.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=${1:-/tmp/chaos-soak}
rm -rf "$WORK"
mkdir -p "$WORK/bin"

echo "building binaries (harness with -race)..."
go build -o "$WORK/bin/adplatform" ./cmd/adplatform
go build -race -o "$WORK/bin/adchaos" ./cmd/adchaos

"$WORK/bin/adchaos" \
  -shard-bin "$WORK/bin/adplatform" \
  -shards 2 -seed 7 -voters 4000 -logrows 1500 \
  -chaos-seed 1 -rate 0.6 -ticks 24 -tick 750ms \
  -workdir "$WORK/fleets"
