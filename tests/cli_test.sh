#!/usr/bin/env bash
# Contract test for the bcclb command line.
#
# Every flag of the table-driven subcommands (rank --n, search, sim, serve,
# route, loadgen, probe) gets one valid value, checked by exit code and by a
# visible effect where the flag has one, and one malformed value, which must
# exit 2 (usage). Flags with no visible effect (--threads, --max-connections,
# the router's deadline and breaker knobs) are accept-only rows. The
# positional commands get one valid call each and their malformed-input
# cases. The daemons run on Unix sockets (and one ephemeral TCP port) in a
# private temporary directory.
#
# Usage: tests/cli_test.sh <path-to-bcclb>
set -uo pipefail

[ $# -eq 1 ] && [ -x "$1" ] || { echo "usage: $0 <path-to-bcclb>" >&2; exit 2; }
BCCLB="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"

WORK="$(mktemp -d)"
pids=()
cleanup() {
  local pid
  for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null; done
  rm -rf "$WORK"
}
trap cleanup EXIT
# search --verify's default golden path is relative; make sure it is absent.
cd "$WORK" || exit 1
# Environment defaults would change what the rows below expect.
unset BCCLB_MEM_BUDGET BCCLB_SERVE_FAULTS

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# expect <code> <args…>: runs bcclb <args…> under a timeout, keeps its
# stdout in $OUT and its stderr in $ERR, and checks the exit code.
OUT=""
ERR=""
LAST=""
expect() {
  local want="$1" rc
  shift
  LAST="bcclb $*"
  OUT="$(timeout 30 "$BCCLB" "$@" 2>"$WORK/stderr")"
  rc=$?
  ERR="$(cat "$WORK/stderr")"
  if [ "$rc" -ne "$want" ]; then
    fail "$LAST exited $rc, want $want"
    [ -n "$ERR" ] && echo "$ERR" | tail -3 >&2
    return 1
  fi
  return 0
}
ok() { expect 0 "$@"; }
bad() { expect 2 "$@"; }

# has <regex>: the last command's stdout has a matching line.
has() { grep -Eq -- "$1" <<<"$OUT" || fail "$LAST: stdout lacks /$1/"; }
hasnt() { ! grep -Eq -- "$1" <<<"$OUT" || fail "$LAST: stdout has /$1/"; }
file_has() { grep -Eq -- "$2" "$1" 2>/dev/null || fail "$1 lacks /$2/"; }

# start <log> <banner> <args…>: starts a daemon in the background and waits
# up to 10 s for its listening banner.
start() {
  local log="$1" banner="$2" i
  shift 2
  "$BCCLB" "$@" >"$log" 2>&1 &
  pids+=($!)
  for i in $(seq 1 100); do
    grep -q "$banner" "$log" 2>/dev/null && return 0
    kill -0 "${pids[-1]}" 2>/dev/null || break
    sleep 0.1
  done
  fail "bcclb $* never printed '$banner'"
  cat "$log" >&2
  return 1
}

# ---------------------------------------------------------------- dispatch
bad
grep -q '^usage: bcclb' <<<"$ERR" || fail "bare bcclb printed no usage on stderr"
bad bogus-command
ok help
has '^usage: bcclb'
has '^  loadgen \(--socket <path> \| --port <p>\)'
[ -z "$ERR" ] || fail "bcclb help wrote to stderr"
ok --help
has '^usage: bcclb'

# ------------------------------------------------------ positional commands
ok counts 12
has '^\|V1\|'
bad counts abc
bad counts
# Numbers are plain digits: no sign, no leading space.
bad counts +7
bad counts ' 7'
# Extra positional arguments are refused, not dropped.
bad counts 12 extra

ok star 6 1 silent
has 'forced error'
bad star 8 2 bogus
bad star 6 x silent
bad star 6 1 silent extra

ok kt0 6 1 silent
has 'max matching'
bad kt0 6 1 bogus
bad kt0 6 1 silent extra

ok rules 6 1 silent
has 'greedy-optimized'
bad rules x 1 silent
bad rules 6 1 silent extra

ok rank 5
has '^rank\(M_5\)'
bad rank x
bad rank 5 extra

ok info 6
ok info 6 0.5
has 'Theorem 4.5'
bad info 6 0.5x
bad info 6 nan
bad info 6 0.5 extra

ok reduce 7
ok reduce 7 3
has '^PA v PB'
bad reduce 8 99999999999999999999
bad reduce 7 3 extra

ok upper 16 6
has 'boruvka'
bad upper 16 7x
bad upper 16 -3
# A library refusal surfaces as a typed error, exit 1.
expect 1 upper 16 99
bad upper 16 6 1 extra

ok bfs 20 0.3
ok bfs 20 0.3 5
has 'CONGEST BFS'
bad bfs 20 x
bad bfs 20 inf
bad bfs 20 0.3 5 extra

ok faults 12 6
ok faults 10 6 3
has 'seed=3'
bad faults 12 x
bad faults 12 6 1 extra

ok campaign "$WORK/camp"
has '^campaign complete'
ok campaign --resume "$WORK/camp"
has '\[resumed\]'
bad campaign "$WORK/camp2" 1x
bad campaign --resume
bad campaign "$WORK/camp2" 1 extra
bad campaign --resume "$WORK/camp" 1 extra
bad campaign --verify "$WORK/g.json" extra
expect 1 campaign --verify "$WORK/no-such-golden.json"

# ------------------------------------------------------------ rank --n N …
RANK=(rank --n 5 --field modp --prime 7 --tile-rows 13)
ok "${RANK[@]}" --dir "$WORK/rank" --threads 2 --mem-budget 1M
has '^matrix M_5$'
has '^field modp$'
has '^prime 7$'
has '^tile-rows 13$'
has '^tiles 4$'
[ -f "$WORK/rank/rank.txt" ] || fail "rank --dir wrote no rank.txt"
ok "${RANK[@]}" --dir "$WORK/rank" --resume
has 'tiles run 0, resumed 4'
ok rank --n 5 --field gf2
has '^field gf2$'
has '^prime 0$'
# A composite modulus is refused before any elimination.
expect 1 rank --n 5 --field modp --prime 4
hasnt '^certificate'
grep -q 'not prime' <<<"$ERR" || fail "rank --prime 4 did not say why it failed"
bad rank --n x
bad rank --n
bad rank --field modp
bad rank --n 5 --field bogus
bad rank --n 5 --prime x
bad rank --n 5 --tile-rows 0
bad rank --n 5 --tile-rows x
bad rank --n 5 --dir ''
bad rank --n 5 --resume
bad rank --n 5 --threads x
bad rank --n 5 --threads 4294967296
bad rank --n 5 --mem-budget 2X
bad rank --n 5 --bogus

# ------------------------------------------------------------------ search
CELL=(--n 6 --rounds 1 --driver random --buckets 4 --budget 8)
ok search --dir "$WORK/search" "${CELL[@]}" --seed 3 --bandwidth 1
has "seed 3:"
[ -f "$WORK/search/out/n6-t1-random-k4-b8.txt" ] || fail "search cell wrote no n6-t1-random-k4-b8"
ok search --dir "$WORK/search" "${CELL[@]}" --seed 3 --resume
has '\[resumed\]'
ok search "$WORK/search-pos" "${CELL[@]}"
[ -f "$WORK/search-pos/out/n6-t1-random-k4-b8.txt" ] || fail "positional search dir unused"
expect 1 search --verify "$WORK/no-such-golden.json"
grep -q "no-such-golden.json" <<<"$ERR" || fail "search --verify ignored its golden path"
expect 1 search --verify
grep -q "results/search_golden.json" <<<"$ERR" || fail "search --verify lost its default path"
bad search
bad search --resume
bad search --dir
bad search --verify --n 6
bad search --verify "$WORK/g.json" --dir "$WORK/x"
bad search --dir "$WORK/x" --n x
bad search --dir "$WORK/x" --rounds 0
bad search --dir "$WORK/x" --buckets 0
bad search --dir "$WORK/x" --buckets 65
bad search --dir "$WORK/x" --budget x
bad search --dir "$WORK/x" --driver bogus
bad search --dir "$WORK/x" --bandwidth 2
bad search --dir "$WORK/x" --seed x
bad search --dir "$WORK/x" --bogus

# --------------------------------------------------------------------- sim
ok sim --implicit --family multi-cycle --n 1000 --seed 7 --bandwidth 16 --threads 2 \
  --cycles 3 --digest
has '^sim-implicit family=multi-cycle n=1000 seed=7$'
has '^bandwidth = 16,'
has 'expected = 3$'
has '^transcript digest = '
ok sim --implicit --n 1000
has 'family=two-cycle n=1000 seed=2019'
hasnt 'transcript digest'
bad sim --n 1000
bad sim --implicit
bad sim --implicit --n x
bad sim --implicit --n 1e5
bad sim --implicit --n 1000 --family bogus
bad sim --implicit --n 1000 --seed -1
bad sim --implicit --n 1000 --bandwidth 0
bad sim --implicit --n 1000 --bandwidth 65
bad sim --implicit --n 1000 --threads 0
bad sim --implicit --n 1000 --cycles 0
bad sim --implicit --n 1000 --digest extra

# --------------------------------------------------- serve, probe, loadgen
SOCK="$WORK/a.sock"
start "$WORK/serve.log" "bccd listening on unix:" serve --socket "$SOCK" --threads 2 \
  --queue 17 --cache-budget 1M --max-connections 9 --store "$WORK/store"
ok probe --socket "$SOCK"
has '^queue capacity = 17$'
has '^cache budget bytes = 1048576$'
has '^disk hits = '

start "$WORK/serve_tcp.log" "bccd listening on tcp:" serve --port 0
PORT="$(sed -n 's/^bccd listening on tcp:127\.0\.0\.1:\([0-9]*\)$/\1/p' "$WORK/serve_tcp.log")"
ok probe --port "$PORT"
has '^queue capacity = '
hasnt '^disk hits'

bad serve
bad serve --socket ''
bad serve --port x
bad serve --port 65536
bad serve --socket "$WORK/x.sock" --threads x
bad serve --socket "$WORK/x.sock" --queue 0
bad serve --socket "$WORK/x.sock" --cache-budget 2X
bad serve --socket "$WORK/x.sock" --max-connections 0
bad serve --socket "$WORK/x.sock" --store ''
bad serve --socket "$WORK/x.sock" --bogus 1
bad probe
bad probe --socket ''
bad probe --port 0
bad probe --port 65536

LOAD=(--requests 6 --concurrency 2 --seed 3 --pool 4 --max-n 4 --stats-every 2 --retries 1
      --deadline-ms 10000 --backoff-ms 5 --zipf 0.5)
ok loadgen --socket "$SOCK" "${LOAD[@]}"
has '"requests": 6,'
has '"concurrency": 2,'
has '"seed": 3,'
has '"pool_size": 4,'
has '"zipf_s": 0.500,'
has '"router": false'
has '"stats_probes": [1-9]'
ok loadgen --port "$PORT" --requests 4 --max-n 4 --json "$WORK/tcp.json"
[ -z "$OUT" ] || fail "loadgen --json still wrote the report to stdout"
file_has "$WORK/tcp.json" "\"endpoint\": \"tcp:127.0.0.1:$PORT\""
bad loadgen
bad loadgen --port 0
bad loadgen --port 65536
bad loadgen --socket "$SOCK" --requests 0
bad loadgen --socket "$SOCK" --concurrency 0
bad loadgen --socket "$SOCK" --seed x
bad loadgen --socket "$SOCK" --pool 0
bad loadgen --socket "$SOCK" --max-n 3
bad loadgen --socket "$SOCK" --stats-every x
bad loadgen --socket "$SOCK" --retries x
bad loadgen --socket "$SOCK" --deadline-ms x
bad loadgen --socket "$SOCK" --backoff-ms 0
bad loadgen --socket "$SOCK" --zipf -1
bad loadgen --socket "$SOCK" --zipf x
bad loadgen --socket "$SOCK" --zipf nan
bad loadgen --socket "$SOCK" --zipf inf
bad loadgen --socket "$SOCK" --json ''
bad loadgen --socket "$SOCK" --router yes

# ------------------------------------------------------------------- route
RSOCK="$WORK/r.sock"
start "$WORK/route.log" "bccr listening on unix:.* across 2 backend" route --socket "$RSOCK" \
  --backend "unix:$SOCK" --backend "tcp:$PORT" --fail-threshold 2 --open-ms 100 \
  --probe-interval-ms 50 --probe-deadline-ms 100 --attempt-deadline-ms 5000 --hedge-ms 0 \
  --max-connections 4 --seed 3
ok probe --socket "$RSOCK"
has '^backends = 2$'
ok loadgen --socket "$RSOCK" --router --requests 4 --concurrency 2 --max-n 4
has '"router": true'
start "$WORK/route_tcp.log" "bccr listening on tcp:.* across 1 backend" route --port 0 \
  --backend "unix:$SOCK"
bad route --socket "$WORK/y.sock"
bad route --backend "unix:$SOCK"
bad route --socket '' --backend "unix:$SOCK"
bad route --port 65536 --backend "unix:$SOCK"
RT=(route --socket "$WORK/y.sock" --backend "unix:$SOCK")
bad "${RT[@]}" --backend bogus
bad "${RT[@]}" --fail-threshold 0
bad "${RT[@]}" --open-ms x
bad "${RT[@]}" --probe-interval-ms x
bad "${RT[@]}" --probe-deadline-ms 0
bad "${RT[@]}" --attempt-deadline-ms 0
bad "${RT[@]}" --hedge-ms x
bad "${RT[@]}" --max-connections 0
bad "${RT[@]}" --seed x
bad "${RT[@]}" --bogus 1

# ------------------------------------------------------------------- drain
# stop <index> <log> <banner>: SIGTERMs a daemon started by start(), which
# must exit 0 after printing <banner>, followed by its kStats text.
stop() {
  local pid="${pids[$1]}" rc=0
  kill -TERM "$pid"
  wait "$pid" || rc=$?
  [ "$rc" -eq 0 ] || fail "daemon $pid exited $rc after SIGTERM"
  grep -q "$3" "$2" || fail "$2 lacks '$3'"
}
stop 3 "$WORK/route_tcp.log" "^bccr drained"
stop 2 "$WORK/route.log" "^bccr drained"
stop 1 "$WORK/serve_tcp.log" "^bccd drained"
stop 0 "$WORK/serve.log" "^bccd drained"
file_has "$WORK/route.log" '^requests routed = [1-9]'
file_has "$WORK/route.log" '^backend 1 tcp:'
file_has "$WORK/serve.log" '^queue capacity = 17$'
file_has "$WORK/serve.log" '^disk writes = [1-9]'
pids=()

if [ "$failures" -ne 0 ]; then
  echo "cli_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_test: all rows passed"
