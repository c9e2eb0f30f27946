#!/usr/bin/env bash
# Determinism + kill-and-resume smoke test for the adversary strategy-search
# subsystem (`bcclb search`, src/search/).
#
# Legs:
#   1. reference  — uninterrupted standard search campaign (seed 2019). Its
#                   n6-t1-evolution artifact must be byte-identical to the
#                   checked-in results/best_strategy_n6_t1.txt, and its
#                   golden digests must match results/search_golden.json
#                   (via `bcclb search --verify`).
#   2. threads    — BCCLB_THREADS=8 must reproduce every artifact and the
#                   golden file byte-for-byte: the drivers draw randomness
#                   serially and only the fitness fan-out is parallel.
#   3. victim     — throttled between batches (BCCLB_CAMPAIGN_BATCH_DELAY_MS)
#                   so a real SIGKILL lands after the first checkpoint flush,
#                   then `search --resume` must finish to identical bytes.
#   4. sigint     — graceful interrupt: flush a checkpoint, exit 130, resume
#                   to identical bytes.
#   5. refusals   — unimplemented bandwidth and an over-cap exhaustive cell
#                   must exit 2 with usage, never crash or run unbounded.
#
# Usage: scripts/search_smoke.sh [path-to-bcclb]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke_lib.sh

BCCLB="${1:-./build/tools/bcclb}"
[ -x "$BCCLB" ] || { echo "error: $BCCLB not built" >&2; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cmp_campaign() {  # cmp_campaign <dir-a> <dir-b>
  cmp "$1/campaign.txt" "$2/campaign.txt"
  cmp "$1/golden.json" "$2/golden.json"
  local f
  for f in "$1"/out/*.txt; do
    cmp "$f" "$2/out/$(basename "$f")"
  done
}

echo "== reference run (standard search campaign, seed 2019)"
"$BCCLB" search "$WORK/ref" >/dev/null
cmp "$WORK/ref/out/n6-t1-evolution.txt" results/best_strategy_n6_t1.txt || {
  echo "FAIL: n6-t1-evolution artifact drifted from results/best_strategy_n6_t1.txt" >&2
  exit 1
}

echo "== golden digest verification against results/search_golden.json"
"$BCCLB" search --verify

echo "== thread-count identity (BCCLB_THREADS=8)"
BCCLB_THREADS=8 "$BCCLB" search "$WORK/threads" >/dev/null
cmp_campaign "$WORK/ref" "$WORK/threads"

echo "== victim run (SIGKILL after first checkpoint)"
kill_after_checkpoint "$WORK/victim/checkpoint.bcclb" "$WORK/victim/campaign.txt" \
  "$WORK/victim.log" checkpoint \
  env BCCLB_CAMPAIGN_BATCH_DELAY_MS=400 "$BCCLB" search "$WORK/victim"

echo "== resume run"
"$BCCLB" search --resume "$WORK/victim" >/dev/null
cmp_campaign "$WORK/ref" "$WORK/victim"
echo "PASS: kill -9 + --resume is bit-identical to an uninterrupted run"

echo "== SIGINT run (graceful interrupt, exit 130)"
if interrupt_after_checkpoint "$WORK/sigint/checkpoint.bcclb" "$WORK/sigint/campaign.txt" \
  "$WORK/sigint.log" search \
  env BCCLB_CAMPAIGN_BATCH_DELAY_MS=400 "$BCCLB" search "$WORK/sigint"; then
  grep -q "resume with: bcclb search --resume" "$WORK/sigint.log" || {
    echo "FAIL: interrupted CLI did not print the resume hint" >&2
    cat "$WORK/sigint.log" >&2
    exit 1
  }
  "$BCCLB" search --resume "$WORK/sigint" >/dev/null
  cmp_campaign "$WORK/ref" "$WORK/sigint"
  echo "PASS: SIGINT flushed a resumable checkpoint and exited 130"
fi

echo "== refusal legs (clean exits, no crash)"
# Flag-level refusal (unimplemented bandwidth): usage, exit 2.
"$BCCLB" search --n 6 --rounds 1 --bandwidth 2 --dir "$WORK/bad" \
  >/dev/null 2>&1 && exit 1 || test $? -eq 2
# Library-level refusal (exhaustive space over the enumeration cap): typed
# error message, exit 1 — never an unbounded run.
"$BCCLB" search --n 6 --rounds 3 --driver exhaustive --buckets 16 --dir "$WORK/bad" \
  >/dev/null 2>&1 && exit 1 || test $? -eq 1

echo "search smoke test passed"
