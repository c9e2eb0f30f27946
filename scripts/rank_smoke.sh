#!/usr/bin/env bash
# Kill-and-resume + determinism smoke test for the out-of-core tiled rank
# engine (`bcclb rank --n …`, linalg/tiled_rank.h).
#
# Five runs over M_7 (B_7 = 877, mod p):
#   1. reference  — uninterrupted, writes the ground-truth rank.txt;
#   2. threads    — BCCLB_THREADS=8 must produce a byte-identical rank.txt
#                   (tile generation shards across threads; elimination is
#                   exact field arithmetic);
#   3. budget     — a deliberately tiny BCCLB_MEM_BUDGET shrinks the pivot
#                   chunk buffer; the certificate must not change;
#   4. victim     — throttled between tiles (BCCLB_RANK_TILE_DELAY_MS) so a
#                   real SIGKILL reliably lands after the first checkpoint
#                   flush but before completion, then `--resume`;
#   5. sigint     — the CLI must flush a checkpoint, exit 130, and resume to
#                   the identical certificate.
#
# Usage: scripts/rank_smoke.sh [path-to-bcclb]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke_lib.sh

BCCLB="${1:-./build/tools/bcclb}"
[ -x "$BCCLB" ] || { echo "error: $BCCLB not built" >&2; exit 2; }

N=7
TILE_ROWS=64   # 14 tiles: plenty of checkpoint flushes for a SIGKILL window
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

rank_cmd() {  # rank_cmd <dir> [extra flags…]
  local dir="$1"; shift
  "$BCCLB" rank --n "$N" --field modp --tile-rows "$TILE_ROWS" --dir "$dir" "$@"
}

echo "== reference run"
rank_cmd "$WORK/ref" >/dev/null 2>&1
grep -q "full-rank yes" "$WORK/ref/rank.txt" || {
  echo "FAIL: reference run did not certify M_$N full rank" >&2; exit 1;
}

echo "== thread-count identity (BCCLB_THREADS=8)"
BCCLB_THREADS=8 rank_cmd "$WORK/threads" >/dev/null 2>&1
cmp "$WORK/ref/rank.txt" "$WORK/threads/rank.txt"

echo "== tiny memory budget (chunked pivot streaming)"
BCCLB_MEM_BUDGET=2M rank_cmd "$WORK/budget" >/dev/null 2>&1
cmp "$WORK/ref/rank.txt" "$WORK/budget/rank.txt"

echo "== victim run (SIGKILL after first tile checkpoint)"
kill_after_checkpoint "$WORK/victim/rank-checkpoint.bcclb" "$WORK/victim/rank.txt" \
  "$WORK/victim.log" "rank checkpoint" \
  env BCCLB_RANK_TILE_DELAY_MS=300 "$BCCLB" rank --n "$N" --field modp \
  --tile-rows "$TILE_ROWS" --dir "$WORK/victim"

echo "== resume run"
rank_cmd "$WORK/victim" --resume >"$WORK/resume.log" 2>&1
grep -q "resumed" "$WORK/resume.log" || true

echo "== comparing resumed certificate against reference"
cmp "$WORK/ref/rank.txt" "$WORK/victim/rank.txt"
echo "PASS: kill -9 + --resume certificate is bit-identical"

echo "== SIGINT run (graceful interrupt, exit 130)"
if interrupt_after_checkpoint "$WORK/sigint/rank-checkpoint.bcclb" "$WORK/sigint/rank.txt" \
  "$WORK/sigint.log" run \
  env BCCLB_RANK_TILE_DELAY_MS=300 "$BCCLB" rank --n "$N" --field modp \
  --tile-rows "$TILE_ROWS" --dir "$WORK/sigint"; then
  rank_cmd "$WORK/sigint" --resume >/dev/null 2>&1
  cmp "$WORK/ref/rank.txt" "$WORK/sigint/rank.txt"
  echo "PASS: SIGINT flushed a resumable checkpoint and exited 130"
fi

echo "rank smoke test passed"
