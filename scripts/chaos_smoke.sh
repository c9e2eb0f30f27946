#!/usr/bin/env bash
# Chaos smoke test: prove bccd's crash-safety story end to end.
#
#   Phase A (warm):    start bccd with a durable --store, replay a seeded mix
#                      so every pool artifact lands on disk, drain cleanly.
#   Phase B (SIGKILL): restart on the same store, launch a retrying loadgen,
#                      SIGKILL the daemon mid-load, restart it on the same
#                      socket + store. The loadgen must finish with exit 0,
#                      zero digest/byte mismatches (responses after the
#                      restart are byte-identical to before — the disk tier
#                      proof), disk_hits > 0, and retries > 0.
#   Phase C (bit rot): flip one byte in every on-disk entry, restart, replay
#                      the same seed. The daemon must quarantine (counter in
#                      the drained stats), recompute, and the run stays clean
#                      — a corrupt artifact is never served.
#   Phase D (chaos):   run the daemon under BCCLB_SERVE_FAULTS crash-after so
#                      it _Exit(137)s mid-load, restart clean, and the
#                      retrying loadgen still finishes with zero mismatches.
#
# Run against a sanitized binary by passing its path:
#   scripts/chaos_smoke.sh build-san-address-undefined/tools/bcclb
#
# Usage: scripts/chaos_smoke.sh [path-to-bcclb]
set -euo pipefail
cd "$(dirname "$0")/.."

BCCLB="${1:-./build/tools/bcclb}"
[ -x "$BCCLB" ] || { echo "error: $BCCLB not built" >&2; exit 2; }

WORK="$(mktemp -d)"
daemon_pid=""
loadgen_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  [ -n "$loadgen_pid" ] && kill -9 "$loadgen_pid" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK="$WORK/bccd.sock"
STORE="$WORK/store"
SEED=7

# wait_for_line / wait_for_exit (WAIT_RC) / assert_json
. "$(dirname "$0")/smoke_lib.sh"

start_daemon() {
  local log="$1"; shift
  "$BCCLB" serve --socket "$SOCK" --store "$STORE" "$@" >"$log" 2>&1 &
  daemon_pid=$!
  wait_for_line "$daemon_pid" "$log" "bccd listening on" 30
}

drain_daemon() {
  local log="$1" expect_rc="${2:-0}"
  kill -TERM "$daemon_pid"
  wait_for_exit "$daemon_pid" 60
  daemon_pid=""
  if [ "$WAIT_RC" -ne "$expect_rc" ]; then
    echo "FAIL: daemon exited $WAIT_RC on SIGTERM, expected $expect_rc" >&2
    cat "$log" >&2
    exit 1
  fi
}

echo "== phase A: warm the durable store"
start_daemon "$WORK/daemon_a.log"
"$BCCLB" loadgen --socket "$SOCK" --requests 400 --concurrency 4 --seed "$SEED" \
  --json "$WORK/warm.json" 2>"$WORK/warm.log"
assert_json "$WORK/warm.json" "s['byte_mismatches'] == 0 and s['digest_mismatches'] == 0"
drain_daemon "$WORK/daemon_a.log"
entry_count=$(ls "$STORE"/*.art 2>/dev/null | wc -l)
[ "$entry_count" -gt 0 ] || {
  echo "FAIL: warm phase left no entries in $STORE" >&2
  cat "$WORK/daemon_a.log" >&2
  exit 1
}
echo "   $entry_count artifacts on disk"

echo "== phase B: SIGKILL mid-load, restart on the same socket + store"
start_daemon "$WORK/daemon_b1.log"
"$BCCLB" loadgen --socket "$SOCK" --requests 300000 --concurrency 4 --seed "$SEED" \
  --retries 25 --backoff-ms 20 --json "$WORK/kill.json" 2>"$WORK/kill.log" &
loadgen_pid=$!
sleep 0.4
kill -9 "$daemon_pid"
wait_for_exit "$daemon_pid" 10
daemon_pid=""
[ "$WAIT_RC" -eq 137 ] || { echo "FAIL: SIGKILLed daemon exited $WAIT_RC, expected 137" >&2; exit 1; }
# Restart against the same store while the loadgen is retrying.
start_daemon "$WORK/daemon_b2.log"
wait_for_exit "$loadgen_pid" 120
loadgen_pid=""
if [ "$WAIT_RC" -ne 0 ]; then
  echo "FAIL: retrying loadgen exited $WAIT_RC across the daemon restart" >&2
  cat "$WORK/kill.log" >&2
  exit 1
fi
# Zero wrong answers, byte-identity across the restart, and proof the disk
# tier (not a recompute) served the warm responses.
assert_json "$WORK/kill.json" "s['byte_mismatches'] == 0 and s['digest_mismatches'] == 0"
assert_json "$WORK/kill.json" "s['disk_hits'] > 0"
assert_json "$WORK/kill.json" "s['retries'] > 0 and s['reconnects'] > 0"
drain_daemon "$WORK/daemon_b2.log"
grep -Eq "^disk hits = [1-9]" "$WORK/daemon_b2.log" || {
  echo "FAIL: restarted daemon reported no disk hits" >&2
  cat "$WORK/daemon_b2.log" >&2
  exit 1
}
echo "   survived SIGKILL: $(grep -o 'disk_hits\": [0-9]*' "$WORK/kill.json"), \
$(grep -o 'retries\": [0-9]*' "$WORK/kill.json" | head -1)"

echo "== phase C: bit-rot every stored entry, restart, prove quarantine"
python3 - "$STORE" <<'PY'
import glob, sys
flipped = 0
for path in glob.glob(sys.argv[1] + "/*.art"):
    with open(path, "r+b") as f:
        f.seek(-1, 2)
        last = f.read(1)
        f.seek(-1, 2)
        f.write(bytes([last[0] ^ 0x01]))
        flipped += 1
assert flipped > 0, "no entries to corrupt"
print(f"   flipped one byte in {flipped} entries")
PY
start_daemon "$WORK/daemon_c.log"
"$BCCLB" loadgen --socket "$SOCK" --requests 400 --concurrency 4 --seed "$SEED" \
  --json "$WORK/rot.json" 2>"$WORK/rot.log"
assert_json "$WORK/rot.json" "s['byte_mismatches'] == 0 and s['digest_mismatches'] == 0"
assert_json "$WORK/rot.json" "s['disk_hits'] == 0"  # nothing rotten was served
drain_daemon "$WORK/daemon_c.log"
grep -Eq "^disk quarantined = [1-9]" "$WORK/daemon_c.log" || {
  echo "FAIL: corrupted entries were not quarantined" >&2
  cat "$WORK/daemon_c.log" >&2
  exit 1
}
quarantined_files=$(ls "$STORE"/*.quarantined 2>/dev/null | wc -l)
[ "$quarantined_files" -gt 0 ] || { echo "FAIL: no .quarantined files kept" >&2; exit 1; }
echo "   $quarantined_files entries quarantined, all recomputed cleanly"

echo "== phase D: seeded chaos (crash-before-reply) then clean restart"
# A daemon under a crash fault: it must die with _Exit(137) mid-load while
# the retrying loadgen rides it out against the clean replacement.
BCCLB_SERVE_FAULTS="seed=$SEED,crash-after=50" "$BCCLB" serve --socket "$SOCK" \
  --store "$STORE" >"$WORK/daemon_d2.log" 2>&1 &
daemon_pid=$!
wait_for_line "$daemon_pid" "$WORK/daemon_d2.log" "bccd listening on" 30
"$BCCLB" loadgen --socket "$SOCK" --requests 20000 --concurrency 4 --seed "$SEED" \
  --retries 25 --backoff-ms 20 --json "$WORK/chaos.json" 2>"$WORK/chaos.log" &
loadgen_pid=$!
wait_for_exit "$daemon_pid" 60   # the chaos plan kills it mid-load
daemon_pid=""
[ "$WAIT_RC" -eq 137 ] || {
  echo "FAIL: chaos daemon exited $WAIT_RC, expected _Exit(137)" >&2
  cat "$WORK/daemon_d2.log" >&2
  exit 1
}
start_daemon "$WORK/daemon_d3.log"   # clean replacement, no faults
wait_for_exit "$loadgen_pid" 120
loadgen_pid=""
if [ "$WAIT_RC" -ne 0 ]; then
  echo "FAIL: loadgen exited $WAIT_RC across the chaos crash" >&2
  cat "$WORK/chaos.log" >&2
  exit 1
fi
assert_json "$WORK/chaos.json" "s['byte_mismatches'] == 0 and s['digest_mismatches'] == 0"
assert_json "$WORK/chaos.json" "s['retries'] > 0"
drain_daemon "$WORK/daemon_d3.log"

echo "chaos smoke test passed"
