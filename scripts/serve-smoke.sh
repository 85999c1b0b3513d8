#!/usr/bin/env sh
# End-to-end smoke test of the cdcsd serving daemon: build it, start
# it on a free port, wait for readiness, submit the built-in wan
# example, follow the job to completion, and assert that the result is
# optimal, that the SSE stream carries incumbent events, and that
# /metrics exposes the algorithm counters in Prometheus text format.
# A second leg proves crash recovery: a daemon with -data-dir is
# kill -9'd mid-job, restarted on the same directory, and must serve
# the finished job's result unchanged while re-running the
# interrupted job marked "restarted". Batch legs ride along in both:
# a 3-graph POST /v1/batch must yield 3 results, and a batch caught
# by the kill -9 must come back with its finished members' results
# intact and only the interrupted member re-run. A trace leg asserts
# the finished job's span forest on GET /v1/jobs/{id}/trace: rooted at
# serve/job with the admission, queue-wait, and synth phase spans
# nested below, plus a Chrome-format rendering of the same tree.
# Used by `make serve-smoke` and CI's serve-smoke job. Requires curl
# and jq; uses no other tooling beyond the Go toolchain and POSIX sh.
set -eu

PORT="${CDCSD_PORT:-18080}"
ADDR="127.0.0.1:$PORT"
BIN="${BIN:-bin}"
LOG="$BIN/cdcsd-smoke.log"

mkdir -p "$BIN"
go build -o "$BIN/cdcsd" ./cmd/cdcsd

"$BIN/cdcsd" -addr "$ADDR" -log-level debug >/dev/null 2>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

# Readiness: poll /readyz until the daemon accepts connections.
wait_ready() {
    for _ in $(seq 1 50); do
        if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "/readyz never became ready"
}
wait_ready

# Liveness carries the build version.
curl -fsS "http://$ADDR/healthz" | grep -q '"status": *"ok"' \
    || fail "/healthz did not report ok"

# Submit the wan example and extract the job id without jq.
job=$(curl -fsS -X POST "http://$ADDR/v1/synthesize" \
    -d '{"example":"wan","options":{"workers":2}}')
id=$(printf '%s' "$job" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || fail "no job id in submit response: $job"

# Follow the job to a terminal state: one GET held until it finishes.
result=$(curl -fsS "http://$ADDR/v1/jobs/$id?wait=10s")
state=$(printf '%s' "$result" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
[ "$state" = done ] || fail "job did not finish (state: $state): $result"
printf '%s' "$result" | grep -q '"optimal": *true' \
    || fail "job result is not optimal: $result"

# The SSE replay must contain the run bracket and incumbent events.
events=$(curl -fsS -N --max-time 10 "http://$ADDR/v1/jobs/$id/events")
printf '%s' "$events" | grep -q '^event: run_start$' || fail "SSE stream has no run_start"
printf '%s' "$events" | grep -q '^event: incumbent$' || fail "SSE stream has no incumbent event"
printf '%s' "$events" | grep -q '^event: run_end$'   || fail "SSE stream has no run_end"

# ---- Trace leg: the finished job's span forest is rooted at
# serve/job and carries the serving-side and synthesis phase spans.
trace=$(curl -fsS "http://$ADDR/v1/jobs/$id/trace")
printf '%s' "$trace" | jq -e '.traceId | test("^[0-9a-f]{32}$")' >/dev/null \
    || fail "trace has no 128-bit traceId: $trace"
printf '%s' "$trace" | jq -e '.spans[0].name == "serve/job"' >/dev/null \
    || fail "trace is not rooted at serve/job: $trace"
for span in serve/admission serve/queue-wait synth/run p2p/plan merging/enumerate synth/solve; do
    printf '%s' "$trace" \
        | jq -e --arg n "$span" '[.. | objects | .name? // empty] | any(. == $n)' >/dev/null \
        || fail "trace has no $span span: $trace"
done
curl -fsS "http://$ADDR/v1/jobs/$id/trace?format=chrome" \
    | jq -e '[.[] | select(.ph == "X")] | length > 0' >/dev/null \
    || fail "chrome-format trace has no complete events"

# /metrics speaks Prometheus text format and carries the counters.
metrics=$(curl -fsS "http://$ADDR/metrics")
printf '%s\n' "$metrics" | grep -q '^# TYPE ucp_incumbents_total counter$' \
    || fail "/metrics has no ucp_incumbents_total TYPE line"
printf '%s\n' "$metrics" | grep -q '^serve_jobs_completed_total 1$' \
    || fail "/metrics did not count the completed job"
printf '%s\n' "$metrics" | grep -Eq '^ucp_nodes_total [0-9]+$' \
    || fail "/metrics has no ucp_nodes_total sample"

# ---- Batch leg: three named graphs in one request, three results.
batch=$(curl -fsS -X POST "http://$ADDR/v1/batch" \
    -d '{"workload":"smoke-batch","graphs":[{"name":"a","example":"wan","options":{"workers":1}},{"name":"b","example":"lan","options":{"workers":1}},{"name":"c","example":"mcm","options":{"workers":1}}]}')
bid=$(printf '%s' "$batch" | sed -n 's/.*"id": *"\(b-[0-9]*\)".*/\1/p' | head -n 1)
[ -n "$bid" ] || fail "no batch id in response: $batch"
bjson=$(curl -fsS "http://$ADDR/v1/batch/$bid?wait=10s")
printf '%s' "$bjson" | grep -q '"done": *true' || fail "batch $bid did not finish: $bjson"
n=$(printf '%s' "$bjson" | grep -c '"state": *"done"') || true
[ "$n" -eq 3 ] || fail "batch $bid has $n done members, want 3: $bjson"
curl -fsS "http://$ADDR/metrics" | grep -q '^serve_batch_members_total 3$' \
    || fail "/metrics did not count the 3 batch members"

# Graceful shutdown: SIGTERM drains and the process exits cleanly.
kill "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "daemon did not exit within 10s of SIGTERM"
    sleep 0.1
done
trap - EXIT INT TERM

# ---- Crash-recovery leg: kill -9 mid-job, restart on the same data dir.
DATA="$BIN/cdcsd-smoke-data"
rm -rf "$DATA"

"$BIN/cdcsd" -addr "$ADDR" -log-level debug -data-dir "$DATA" >/dev/null 2>>"$LOG" &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true' EXIT INT TERM
wait_ready

# Job A finishes before the crash; its result must survive verbatim.
jobA=$(curl -fsS -X POST "http://$ADDR/v1/synthesize" \
    -d '{"example":"wan","options":{"workers":2}}')
idA=$(printf '%s' "$jobA" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$idA" ] || fail "no job id in durable submit response: $jobA"
resultA=$(curl -fsS "http://$ADDR/v1/jobs/$idA?wait=10s")
printf '%s' "$resultA" | grep -q '"state": *"done"' \
    || fail "durable job A did not finish: $resultA"
costA=$(printf '%s' "$resultA" | sed -n 's/.*"cost": *\([0-9.]*\).*/\1/p')

# A batch with two fast members and one slow one: the fast members
# finish before the crash, the slow one is caught mid-run. Submitted
# while both job slots are free so the fast members cannot starve
# behind a pair of big jobs.
cbatch=$(curl -fsS -X POST "http://$ADDR/v1/batch" \
    -d '{"workload":"crash-batch","graphs":[{"name":"fast-wan","example":"wan","options":{"workers":1}},{"name":"fast-lan","example":"lan","options":{"workers":1}},{"name":"slow","example":"mpeg4","options":{"workers":1}}]}')
cbid=$(printf '%s' "$cbatch" | sed -n 's/.*"id": *"\(b-[0-9]*\)".*/\1/p' | head -n 1)
[ -n "$cbid" ] || fail "no batch id in durable batch response: $cbatch"
fastdone=""
for _ in $(seq 1 300); do
    n=$(curl -fsS "http://$ADDR/v1/batch/$cbid" | grep -c '"state": *"done"') || true
    if [ "$n" -ge 2 ]; then
        fastdone=yes
        break
    fi
    sleep 0.1
done
[ "$fastdone" = yes ] || fail "fast batch members did not finish before the crash"

# Job B is the big instance on one worker (~seconds): the kill below
# lands mid-run, so the restarted daemon must re-queue it.
jobB=$(curl -fsS -X POST "http://$ADDR/v1/synthesize" \
    -d '{"example":"mpeg4","options":{"workers":1}}')
idB=$(printf '%s' "$jobB" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$idB" ] || fail "no job id in durable submit response: $jobB"

kill -9 "$PID"
wait "$PID" 2>/dev/null || true

"$BIN/cdcsd" -addr "$ADDR" -log-level debug -data-dir "$DATA" >/dev/null 2>>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT INT TERM
wait_ready

# The finished job must come back queryable with the same result.
resultA=$(curl -fsS "http://$ADDR/v1/jobs/$idA")
printf '%s' "$resultA" | grep -q '"state": *"done"' \
    || fail "finished job A not restored after kill -9: $resultA"
printf '%s' "$resultA" | grep -q "\"cost\": *$costA" \
    || fail "restored job A cost changed (want $costA): $resultA"
# Its SSE replay still serves a complete bracket.
eventsA=$(curl -fsS -N --max-time 10 "http://$ADDR/v1/jobs/$idA/events")
printf '%s' "$eventsA" | grep -q '^event: run_start$' || fail "restored SSE has no run_start"
printf '%s' "$eventsA" | grep -q '^event: run_end$'   || fail "restored SSE has no run_end"

# The interrupted job must re-run to completion, marked restarted.
resultB=$(curl -fsS "http://$ADDR/v1/jobs/$idB?wait=30s")
printf '%s' "$resultB" | grep -q '"state": *"done"' \
    || fail "re-queued job B did not finish: $resultB"
printf '%s' "$resultB" | grep -q '"restarted": *true' \
    || fail "re-run job B is not marked restarted"

# The batch must survive the crash: restored envelope, finished
# members untouched, only the interrupted member re-run.
bjson=$(curl -fsS "http://$ADDR/v1/batch/$cbid") \
    || fail "batch $cbid not restored after kill -9"
printf '%s' "$bjson" | grep -q '"restored": *true' \
    || fail "restored batch is not marked restored: $bjson"
bjson=$(curl -fsS "http://$ADDR/v1/batch/$cbid?wait=30s")
printf '%s' "$bjson" | grep -q '"done": *true' || fail "restored batch did not finish: $bjson"
n=$(printf '%s' "$bjson" | grep -c '"state": *"done"') || true
[ "$n" -eq 3 ] || fail "restored batch has $n done members, want 3: $bjson"
n=$(printf '%s' "$bjson" | grep -c '"restarted": *true') || true
[ "$n" -eq 1 ] || fail "restored batch has $n restarted members, want exactly the interrupted one: $bjson"

# The durability and admission instruments are on /metrics.
metrics=$(curl -fsS "http://$ADDR/metrics")
printf '%s\n' "$metrics" | grep -Eq '^durable_wal_records_total [0-9]+$' \
    || fail "/metrics has no durable_wal_records_total sample"
printf '%s\n' "$metrics" | grep -Eq '^serve_shed_accepted_total [0-9]+$' \
    || fail "/metrics has no serve_shed_accepted_total sample"

kill "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "restarted daemon did not exit within 10s of SIGTERM"
    sleep 0.1
done
trap - EXIT INT TERM

echo "serve-smoke: OK (job $id optimal, batch $bid complete, SSE incumbents seen, trace spans asserted, metrics scraped; crash recovery: $idA restored, $idB re-run, batch $cbid survived)"
