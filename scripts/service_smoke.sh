#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of the multi-run control
# plane with real processes: boot wfbench-serve and wfmd, submit runs
# for two tenants over plain HTTP, SIGKILL the daemon mid-run, restart
# it on the same data dir, land a third run through `wfm -submit`, and
# assert every run reaches succeeded. Finishes by checking /metrics
# and rendering the data dir with `analyze -journal`.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d "${TMPDIR:-/tmp}/wfmd-smoke-XXXXXX")"
BIN="$WORK/bin"
BACKEND_ADDR=127.0.0.1:18080
WFMD_ADDR=127.0.0.1:19433
BASE="http://$WFMD_ADDR"
BACKEND_PID=""
WFMD_PID=""

cleanup() {
    [ -n "$WFMD_PID" ] && kill "$WFMD_PID" 2>/dev/null || true
    [ -n "$BACKEND_PID" ] && kill "$BACKEND_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "service_smoke: FAIL: $*" >&2; exit 1; }

wait_http() { # url, label
    for _ in $(seq 1 100); do
        curl -fsS -o /dev/null "$1" 2>/dev/null && return 0
        sleep 0.1
    done
    fail "$2 never answered at $1"
}

run_id() { grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4; }

echo "== build =="
mkdir -p "$BIN"
go build -o "$BIN" ./cmd/wfmd ./cmd/wfm ./cmd/wfgen ./cmd/wfbench-serve ./cmd/analyze

echo "== backend =="
"$BIN/wfbench-serve" -addr "$BACKEND_ADDR" -workdir "$WORK/shared" \
    -burn=false -time-scale 0.02 >"$WORK/backend.log" 2>&1 &
BACKEND_PID=$!
wait_http "http://$BACKEND_ADDR/healthz" "wfbench-serve"

echo "== workflows =="
"$BIN/wfgen" -recipe blast -tasks 30 -seed 3 -target local \
    -url "http://$BACKEND_ADDR" -workdir "$WORK/shared" -o "$WORK/wf-a.json"
"$BIN/wfgen" -recipe cycles -tasks 30 -seed 5 -target local \
    -url "http://$BACKEND_ADDR" -workdir "$WORK/shared" -o "$WORK/wf-b.json"
"$BIN/wfgen" -recipe seismology -tasks 20 -seed 7 -target local \
    -url "http://$BACKEND_ADDR" -workdir "$WORK/shared" -o "$WORK/wf-c.json"

start_wfmd() {
    "$BIN/wfmd" -addr "$WFMD_ADDR" -data-dir "$WORK/wfmd" -workdir "$WORK/shared" \
        -tenant team-a:3 -tenant team-b:1 -task-slots 8 \
        -time-scale 0.02 -retries 2 -log-level info >>"$WORK/wfmd.log" 2>&1 &
    WFMD_PID=$!
    wait_http "$BASE/healthz" "wfmd"
}

echo "== daemon (life 1) =="
start_wfmd

RUN_A=$(curl -fsS -X POST --data-binary @"$WORK/wf-a.json" "$BASE/v1/runs?tenant=team-a" | run_id)
RUN_B=$(curl -fsS -X POST --data-binary @"$WORK/wf-b.json" "$BASE/v1/runs?tenant=team-b&priority=high" | run_id)
[ -n "$RUN_A" ] && [ -n "$RUN_B" ] || fail "submissions were not accepted (a='$RUN_A' b='$RUN_B')"
echo "submitted $RUN_A (team-a), $RUN_B (team-b)"

# Let the runs make real progress, then kill the daemon the hard way.
for _ in $(seq 1 200); do
    DONE=$(curl -fsS "$BASE/v1/runs/$RUN_A" | grep -o '"done":[0-9]*' | cut -d: -f2)
    [ "${DONE:-0}" -ge 3 ] && break
    sleep 0.1
done
[ "${DONE:-0}" -ge 3 ] || fail "run $RUN_A made no progress before the kill"

echo "== SIGKILL mid-run (after $DONE completed tasks) =="
kill -9 "$WFMD_PID"
wait "$WFMD_PID" 2>/dev/null || true
WFMD_PID=""

echo "== daemon (life 2, same data dir) =="
start_wfmd

# A post-restart submission through the wfm client (exits non-zero
# unless its run succeeds, riding out any 429s on the way in).
"$BIN/wfm" -workflow "$WORK/wf-c.json" -submit "$BASE" -tenant team-b -poll 0.1

# Every run — the two interrupted ones included — must reach succeeded.
for _ in $(seq 1 300); do
    LIST=$(curl -fsS "$BASE/v1/runs")
    TOTAL=$(echo "$LIST" | grep -o '"state":' | wc -l)
    OK=$(echo "$LIST" | grep -o '"state":"succeeded"' | wc -l)
    [ "$TOTAL" -eq 3 ] && [ "$OK" -eq 3 ] && break
    echo "$LIST" | grep -o '"state":"\(failed\|cancelled\)"' | head -1 | grep -q . && {
        echo "$LIST"; fail "a run reached a non-succeeded terminal state"; }
    sleep 0.1
done
[ "${OK:-0}" -eq 3 ] || { echo "$LIST"; fail "expected 3 succeeded runs, got $OK of $TOTAL"; }
echo "all 3 runs succeeded across the restart"

# The runs live in the service log; no run wrote a journal of its own.
[ -d "$WORK/wfmd/log" ] || fail "the data dir has no service log"
if ls -d "$WORK"/wfmd/runs/*/journal >/dev/null 2>&1; then
    fail "a run wrote a journal directory of its own"
fi

echo "== metrics =="
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q 'wfmd_runs_completed_total{tenant="team-a",state="succeeded"} 1' \
    || fail "team-a completion missing from /metrics"
echo "$METRICS" | grep -q 'wfmd_runs_completed_total{tenant="team-b",state="succeeded"} 2' \
    || fail "team-b completions missing from /metrics"

echo "== analyze -journal on the data dir =="
"$BIN/analyze" -journal "$WORK/wfmd" | tee "$WORK/analyze.out"
[ "$(grep -c succeeded "$WORK/analyze.out")" -eq 3 ] || fail "analyze table should list 3 succeeded runs"

echo "service_smoke: PASS"
