# Shared helpers for the smoke-test scripts (serve_smoke.sh, chaos_smoke.sh,
# cluster_smoke.sh, and the kill-and-resume legs of test_kill_resume.sh,
# rank_smoke.sh and search_smoke.sh). Source this file; do not execute it. Everything here
# must run in the sourcing shell: wait(1) only knows that shell's children,
# so wrapping these in a subshell would break exit-code capture.

# Bounded wait for a line to show up in a log file. Polls every 0.1 s up to
# timeout_s seconds, failing loudly (log dumped to stderr) on process death
# or timeout — CI hangs waiting forever are worse than a clear failure.
#   wait_for_line <pid> <log> <needle> [timeout_s]
wait_for_line() {
  local pid="$1" log="$2" needle="$3" timeout_s="${4:-30}"
  local deadline=$((10 * timeout_s)) i
  for ((i = 0; i < deadline; i++)); do
    grep -q "$needle" "$log" 2>/dev/null && return 0
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: process $pid died before printing '$needle'" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "FAIL: timed out after ${timeout_s}s waiting for '$needle'" >&2
  cat "$log" >&2
  return 1
}

# Bounded wait for a process to exit; leaves its exit code in WAIT_RC. Kills
# the process and fails loudly if it is still alive after timeout_s seconds.
#   wait_for_exit <pid> [timeout_s]
WAIT_RC=0
wait_for_exit() {
  local pid="$1" timeout_s="${2:-60}"
  local deadline=$((10 * timeout_s)) i
  for ((i = 0; i < deadline; i++)); do
    if ! kill -0 "$pid" 2>/dev/null; then
      WAIT_RC=0
      wait "$pid" || WAIT_RC=$?
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: process $pid still alive after ${timeout_s}s" >&2
  kill -9 "$pid" 2>/dev/null || true
  return 1
}

# Assert a python expression over the "serve" section of a loadgen JSON
# report; the section is bound to `s`.
#   assert_json <json-path> <python-expr>
assert_json() {
  python3 - "$1" "$2" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))["serve"]
if not eval(sys.argv[2], {}, {"s": s}):
    print(f"FAIL: assertion '{sys.argv[2]}' over serve section: {s}", file=sys.stderr)
    sys.exit(1)
PY
}

# Polls up to 10 s for a checkpoint file to appear.
#   wait_for_checkpoint <path>
wait_for_checkpoint() {
  local i
  for i in $(seq 1 100); do
    [ -f "$1" ] && return 0
    sleep 0.1
  done
  return 1
}

# The SIGKILL leg of a kill-and-resume test: runs <cmd…> in the background
# with output to <log>, waits for <checkpoint> to appear, then kill -9s it.
# Exits the script with "FAIL: no <what> appeared before timeout" if the
# checkpoint never shows up. A run that wrote <final> before the kill landed
# is noted, not failed: the caller's resume then checks a finished directory.
# Pass env overrides through env(1) so $! is the binary itself.
#   kill_after_checkpoint <checkpoint> <final> <log> <what> <cmd…>
kill_after_checkpoint() {
  local checkpoint="$1" final="$2" log="$3" what="$4" pid
  shift 4
  "$@" >"$log" 2>&1 &
  pid=$!
  wait_for_checkpoint "$checkpoint" || {
    echo "FAIL: no $what appeared before timeout" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
  }
  # The victim may already have exited (a campaign whose jobs all fit in one
  # batch writes its first checkpoint last); that case is the note below.
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  if [ -f "$final" ]; then
    echo "note: victim finished before SIGKILL landed; resume degenerates to a no-op check"
  fi
}

# The SIGINT leg: runs <cmd…> in the background with output to <log>, waits
# for <checkpoint>, sends SIGINT and requires exit code 130. Returns 0 when
# the run was interrupted (the caller then resumes and compares), or 1 with
# a note when the <what> wrote <final> before the signal landed. A wrong
# exit code exits the script with a FAIL.
#   interrupt_after_checkpoint <checkpoint> <final> <log> <what> <cmd…>
interrupt_after_checkpoint() {
  local checkpoint="$1" final="$2" log="$3" what="$4" pid rc=0
  shift 4
  "$@" >"$log" 2>&1 &
  pid=$!
  wait_for_checkpoint "$checkpoint" || true
  kill -INT "$pid" 2>/dev/null || true
  wait "$pid" || rc=$?
  if [ -f "$final" ]; then
    echo "note: SIGINT $what finished before the signal landed (rc=$rc)"
    return 1
  fi
  [ "$rc" -eq 130 ] || { echo "FAIL: interrupted CLI exited $rc, expected 130" >&2; exit 1; }
}
