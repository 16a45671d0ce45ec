#!/usr/bin/env bash
# Privacy conformance smoke: the merged-then-privatized insights surface of a
# 2-shard fleet must be byte-identical to a single adplatform privatizing the
# same world under the same policy and noise seed.
#
# Topology A: one adplatform with the privacy policy armed locally; the
# workload's -delivery-workers 2 runs its days on two shards in process.
# Topology B: two RAW shard adplatforms behind an adrouter that applies the
# SAME policy to the merged report (merge-then-privatize). Both run the
# identical seeded cmd/adload workload, which exits non-zero on any failed
# scenario; the smoke then reads every created ad's privatized insights
# (full + age,gender,region breakdown) from both surfaces, checks that every
# body carries its privacy block, and fails on any digest divergence — which
# would mean the noise stream or the suppression decisions depend on the
# process topology, reopening the cross-surface averaging attack the
# content-keyed stream closes.
#
# Usage: scripts/privacy_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=${1:-/tmp/privacy-smoke}
rm -rf "$WORK"
mkdir -p "$WORK/bin" "$WORK/logs"

WORLD="-seed 7 -voters 4000 -logrows 1500 -review-reject 0"
PRIVACY="-privacy-k 5 -privacy-epsilon 1 -privacy-seed 42"
SCENARIOS=4
ADS=2

echo "building binaries..."
go build -o "$WORK/bin/adplatform" ./cmd/adplatform
go build -o "$WORK/bin/adrouter" ./cmd/adrouter
go build -o "$WORK/bin/adload" ./cmd/adload

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_healthy() {
  for _ in $(seq 1 120); do
    curl -fs "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 1
  done
  echo "server at $1 never became healthy"
  return 1
}

echo "starting topology A: single adplatform, privacy armed locally..."
# shellcheck disable=SC2086
"$WORK/bin/adplatform" -addr 127.0.0.1:8410 $WORLD $PRIVACY \
  -voterdir "$WORK/extracts" >"$WORK/logs/single.log" 2>&1 &
PIDS+=($!)

echo "starting topology B: 2 raw shards behind a privatizing router..."
# shellcheck disable=SC2086
"$WORK/bin/adplatform" -addr 127.0.0.1:8421 $WORLD >"$WORK/logs/shard0.log" 2>&1 &
PIDS+=($!)
# shellcheck disable=SC2086
"$WORK/bin/adplatform" -addr 127.0.0.1:8422 $WORLD >"$WORK/logs/shard1.log" 2>&1 &
PIDS+=($!)
wait_healthy 127.0.0.1:8410 || { cat "$WORK/logs/single.log"; exit 1; }
wait_healthy 127.0.0.1:8421 || { cat "$WORK/logs/shard0.log"; exit 1; }
wait_healthy 127.0.0.1:8422 || { cat "$WORK/logs/shard1.log"; exit 1; }
# shellcheck disable=SC2086
"$WORK/bin/adrouter" -addr 127.0.0.1:8420 $PRIVACY \
  -shards http://127.0.0.1:8421,http://127.0.0.1:8422 >"$WORK/logs/router.log" 2>&1 &
PIDS+=($!)
wait_healthy 127.0.0.1:8420 || { cat "$WORK/logs/router.log"; exit 1; }

run_load() {
  "$WORK/bin/adload" -target "http://$1" \
    -voterfile "$WORK/extracts/fl_voter_extract.txt" \
    -scenarios $SCENARIOS -concurrency 1 -ads $ADS -audience 120 \
    -seed 7 -delivery-workers 2
}
echo "running the seeded workload against both topologies..."
run_load 127.0.0.1:8410
run_load 127.0.0.1:8420

digest() {
  # The -concurrency 1 workload allocates IDs deterministically, but ads
  # share one counter with campaigns and audiences: scan the range and keep
  # the IDs that resolve, recording how many did (both topologies must
  # agree on the set AND the bytes).
  local host=$1 out=$2 found=0
  : >"$out"
  for i in $(seq 1 $((SCENARIOS * (ADS + 4)))); do
    if body=$(curl -fs "http://$host/v1/insights?ad_id=ad-$i"); then
      found=$((found + 1))
      printf '%s\n' "$body" >>"$out"
      curl -fs "http://$host/v1/insights?ad_id=ad-$i&breakdown=age,gender,region" >>"$out"
      echo >>"$out"
    fi
  done
  echo "$found" >"$out.count"
}
echo "reading privatized insights from both surfaces..."
digest 127.0.0.1:8410 "$WORK/insights-single.txt"
digest 127.0.0.1:8420 "$WORK/insights-router.txt"

WANT_ADS=$((SCENARIOS * ADS))
WANT_BODIES=$((2 * WANT_ADS))
for name in single router; do
  out="$WORK/insights-$name.txt"
  n=$(cat "$out.count")
  if [ "$n" -ne "$WANT_ADS" ]; then
    echo "$name: found insights for $n ads, want $WANT_ADS"
    exit 1
  fi
  # One JSON body per non-blank line; each must carry a non-empty privacy
  # block.
  bodies=$(grep -c '[^[:space:]]' "$out" || true)
  if [ "$bodies" -ne "$WANT_BODIES" ]; then
    echo "$name: read $bodies insights bodies, want $WANT_BODIES"
    exit 1
  fi
  private=$(grep -c '"privacy":{"' "$out" || true)
  if [ "$private" -ne "$bodies" ]; then
    echo "$name: $((bodies - private)) of $bodies insights bodies carry no privacy block"
    exit 1
  fi
done

single=$(sha256sum "$WORK/insights-single.txt" | cut -d' ' -f1)
router=$(sha256sum "$WORK/insights-router.txt" | cut -d' ' -f1)
if ! cmp -s "$WORK/insights-single.txt" "$WORK/insights-router.txt"; then
  echo "privatized insights diverged between topologies:"
  echo "  single: $single"
  echo "  router: $router"
  echo "see insights-single.txt / insights-router.txt in the workdir"
  exit 1
fi
echo "privacy smoke OK: digest ${single:0:16}… identical across topologies, all $WANT_BODIES insights bodies on each privatized"
