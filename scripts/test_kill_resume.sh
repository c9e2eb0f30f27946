#!/usr/bin/env bash
# Kill-and-resume smoke test for the campaign checkpoint layer.
#
# Three runs of the standard campaign:
#   1. reference  — uninterrupted, produces the ground-truth artifacts;
#   2. victim     — throttled between batches (BCCLB_CAMPAIGN_BATCH_DELAY_MS)
#                   so a real SIGKILL reliably lands after the first
#                   checkpoint flush but before completion;
#   3. resume     — `bcclb campaign --resume` on the victim directory.
# The resumed campaign.txt and golden.json must be byte-identical to the
# reference. A fourth run checks the SIGINT path: the CLI must flush a
# checkpoint and exit 130, and the interrupted directory must also resume to
# the identical artifacts.
#
# Usage: scripts/test_kill_resume.sh [path-to-bcclb]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke_lib.sh

BCCLB="${1:-./build/tools/bcclb}"
[ -x "$BCCLB" ] || { echo "error: $BCCLB not built" >&2; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== reference run"
"$BCCLB" campaign "$WORK/ref" >/dev/null

echo "== victim run (SIGKILL after first checkpoint)"
kill_after_checkpoint "$WORK/victim/checkpoint.bcclb" "$WORK/victim/campaign.txt" \
  "$WORK/victim.log" checkpoint \
  env BCCLB_CAMPAIGN_BATCH_DELAY_MS=400 "$BCCLB" campaign "$WORK/victim"

echo "== resume run"
"$BCCLB" campaign --resume "$WORK/victim" >/dev/null

echo "== comparing resumed artifacts against reference"
cmp "$WORK/ref/campaign.txt" "$WORK/victim/campaign.txt"
cmp "$WORK/ref/golden.json" "$WORK/victim/golden.json"
echo "PASS: kill -9 + resume is bit-identical to an uninterrupted run"

echo "== SIGINT run (graceful interrupt, exit 130)"
if interrupt_after_checkpoint "$WORK/sigint/checkpoint.bcclb" "$WORK/sigint/campaign.txt" \
  "$WORK/sigint.log" campaign \
  env BCCLB_CAMPAIGN_BATCH_DELAY_MS=400 "$BCCLB" campaign "$WORK/sigint"; then
  [ -f "$WORK/sigint/checkpoint.bcclb" ] || {
    echo "FAIL: interrupted campaign left no checkpoint" >&2; exit 1;
  }
  "$BCCLB" campaign --resume "$WORK/sigint" >/dev/null
  cmp "$WORK/ref/campaign.txt" "$WORK/sigint/campaign.txt"
  echo "PASS: SIGINT flushed a resumable checkpoint and exited 130"
fi

echo "kill-and-resume smoke test passed"
