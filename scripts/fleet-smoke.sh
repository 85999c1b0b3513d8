#!/usr/bin/env sh
# End-to-end smoke test of a replica-aware cdcsd fleet driven by the
# cdcs-load traffic generator. Two modes:
#
#   fleet (default): start 3 replicas that know each other via
#     -self/-peers, run a steady-rate phase and then a deliberate
#     overload phase (tight -shed-watermarks, ~120 QPS), and
#     jq-assert the generator's JSON reports — zero hard errors, work
#     completed on all 3 replicas, p99 under a generous bound, shed
#     observed under overload but not runaway, and at least one peer
#     forward visible on the /v1/fleet endpoints. A tracing leg then
#     forwards a probe carrying a caller-minted traceparent and
#     asserts its trace is readable from >= 2 replicas (forward hop on
#     the forwarder, serve/job on the owner).
#
#   quick: one replica, one short burst — the `make load` demo.
#
# Used by `make fleet-smoke` / `make load` and CI's fleet-smoke job.
# Requires curl and jq; uses POSIX sh only.
set -eu

MODE="${1:-fleet}"
BASE_PORT="${CDCS_FLEET_PORT:-18180}"
BIN="${BIN:-bin}"
LOG="$BIN/fleet-smoke.log"
PIDS=""

mkdir -p "$BIN"
go build -o "$BIN/cdcsd" ./cmd/cdcsd
go build -o "$BIN/cdcs-load" ./cmd/cdcs-load
: > "$LOG"

fail() {
    echo "fleet-smoke: FAIL: $1" >&2
    echo "--- daemon log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT INT TERM

wait_ready() {
    for _ in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "replica on port $1 never became ready"
}

# assert FILE JQ_EXPR DESCRIPTION — jq -e the report or die with it.
assert() {
    jq -e "$2" "$1" >/dev/null \
        || fail "$3 ($2 on $(cat "$1"))"
}

if [ "$MODE" = quick ]; then
    PORT=$BASE_PORT
    "$BIN/cdcsd" -addr "127.0.0.1:$PORT" -log-level warn >/dev/null 2>>"$LOG" &
    PIDS="$!"
    wait_ready "$PORT"
    REPORT="$BIN/load-report.json"
    "$BIN/cdcs-load" -targets "http://127.0.0.1:$PORT" \
        -qps 20 -duration 3s -deadline 30s -report "$REPORT" 2>>"$LOG" \
        || fail "cdcs-load run failed"
    assert "$REPORT" '.completed > 0' "no requests completed"
    assert "$REPORT" '.errors == 0' "hard errors against an idle daemon"
    assert "$REPORT" '.deadline_missed == 0' "deadline misses against an idle daemon"
    cat "$REPORT"
    echo "fleet-smoke: OK (quick: $(jq -r '.completed' "$REPORT") jobs completed)"
    exit 0
fi

[ "$MODE" = fleet ] || fail "unknown mode $MODE (want fleet or quick)"

# ---- Start 3 replicas with a shared membership list and tight
# watermarks so the overload phase actually sheds and forwards.
P1=$BASE_PORT
P2=$((BASE_PORT + 1))
P3=$((BASE_PORT + 2))
PEERS="http://127.0.0.1:$P1,http://127.0.0.1:$P2,http://127.0.0.1:$P3"
for port in $P1 $P2 $P3; do
    "$BIN/cdcsd" -addr "127.0.0.1:$port" -log-level warn \
        -max-jobs 2 -retain 1024 -shed-watermarks 6:12 \
        -self "http://127.0.0.1:$port" -peers "$PEERS" \
        >/dev/null 2>>"$LOG" &
    PIDS="$PIDS $!"
done
for port in $P1 $P2 $P3; do
    wait_ready "$port"
done

# Every replica must report the full membership.
for port in $P1 $P2 $P3; do
    n=$(curl -fsS "http://127.0.0.1:$port/v1/fleet" | jq '.peers | length')
    [ "$n" = 3 ] || fail "replica $port sees $n peers, want 3"
done

# ---- Steady phase: comfortably under capacity, nothing drops.
STEADY="$BIN/fleet-steady.json"
"$BIN/cdcs-load" -targets "$PEERS" \
    -qps 5 -duration 5s -deadline 60s -report "$STEADY" 2>>"$LOG" \
    || fail "steady cdcs-load run failed"
assert "$STEADY" '.completed > 0' "steady phase completed nothing"
assert "$STEADY" '.errors == 0' "steady phase hit hard errors"
assert "$STEADY" '.deadline_missed == 0' "steady phase missed deadlines"
assert "$STEADY" '.replicas | length == 3' "steady phase did not use all 3 replicas"
assert "$STEADY" '.balance > 0' "steady phase left a replica idle"
assert "$STEADY" '.latency.p99_ms < 30000' "steady p99 blew the generous bound"

# ---- Overload phase: ~10x the steady rate into 6:12 watermarks.
# Shedding is the correct behavior here — what must NOT happen is a
# hard error or a total collapse of completions.
OVER="$BIN/fleet-overload.json"
"$BIN/cdcs-load" -targets "$PEERS" \
    -qps 120 -duration 5s -deadline 60s -report "$OVER" 2>>"$LOG" \
    || fail "overload cdcs-load run failed"
assert "$OVER" '.shed > 0' "overload phase never shed (watermarks not biting)"
assert "$OVER" '.completed > 0' "overload phase completed nothing"
assert "$OVER" '.errors == 0' "overload phase hit hard errors"
assert "$OVER" '.shed_rate < 1' "overload phase shed everything"
assert "$OVER" '.replicas | length == 3' "overload phase did not use all 3 replicas"
assert "$OVER" '.latency.p99_ms < 60000' "overload p99 blew the generous bound"

# ---- Past the degrade watermark, replicas hand non-owned workloads
# to their rendezvous owner: the fleet as a whole must have forwarded.
fwd=0
for port in $P1 $P2 $P3; do
    f=$(curl -fsS "http://127.0.0.1:$port/v1/fleet" | jq '.forwarded')
    fwd=$((fwd + f))
done
[ "$fwd" -gt 0 ] || fail "no replica ever forwarded a submission (total forwarded = $fwd)"

# ---- Distributed-tracing leg: push replica 1 past its degrade
# watermark, then submit traced probes until one is forwarded to its
# rendezvous owner. The propagated trace ID must then be readable from
# at least two replicas — the forwarder holds the serve/forward hop,
# the owner holds the serve/job execution — which is exactly what
# client-side stitching (`cdcs -server ... -trace`) glues together.
wait_drained() {
    for _ in $(seq 1 200); do
        busy=0
        for port in $P1 $P2 $P3; do
            l=$(curl -fsS "http://127.0.0.1:$port/v1/fleet" | jq '.load')
            [ "$l" -gt 0 ] && busy=1
        done
        [ "$busy" = 0 ] && return 0
        sleep 0.1
    done
    fail "fleet did not drain after the overload phase"
}
wait_drained

# Six slow fillers lift replica 1 exactly to the degrade watermark
# (load >= 6) without nearing shed (12), so probes forward, not drop.
# The fillers themselves are all admitted below the watermark, so none
# of them leaves the replica.
for i in $(seq 1 6); do
    curl -fsS -X POST "http://127.0.0.1:$P1/v1/synthesize" \
        -d '{"example":"mpeg4","workload":"filler","options":{"workers":1}}' >/dev/null \
        || fail "filler submit $i failed"
done

# Probe with distinct workloads until rendezvous routing picks another
# replica as owner; each probe carries a caller-minted traceparent so
# the whole hop chain joins a trace ID we know in advance.
fid=""
fowner=""
ftid=""
for i in $(seq 1 6); do
    tid=$(printf 'c0ffee%026d' "$i")
    probe=$(curl -fsS -X POST "http://127.0.0.1:$P1/v1/synthesize" \
        -H "traceparent: 00-$tid-00f067aa0ba902b7-01" \
        -d "{\"example\":\"wan\",\"workload\":\"probe-$i\",\"options\":{\"workers\":1}}") \
        || fail "probe $i submit failed"
    server=$(printf '%s' "$probe" | jq -r '.server // empty')
    if [ -n "$server" ] && [ "$server" != "http://127.0.0.1:$P1" ]; then
        fid=$(printf '%s' "$probe" | jq -r '.id')
        fowner=$server
        ftid=$tid
        break
    fi
done
[ -n "$fid" ] || fail "no probe was forwarded off replica 1 (6 workloads tried)"
[ "$(printf '%s' "$probe" | jq -r '.traceId')" = "$ftid" ] \
    || fail "forwarded probe lost the propagated trace ID: $probe"

fjob=$(curl -fsS "$fowner/v1/jobs/$fid?wait=10s")
[ "$(printf '%s' "$fjob" | jq -r '.state')" = done ] \
    || fail "forwarded probe did not finish: $fjob"

holders=0
for port in $P1 $P2 $P3; do
    if curl -fsS "http://127.0.0.1:$port/v1/traces/$ftid" >/dev/null 2>&1; then
        holders=$((holders + 1))
    fi
done
[ "$holders" -ge 2 ] || fail "forwarded trace $ftid held by $holders replicas, want >= 2"
curl -fsS "http://127.0.0.1:$P1/v1/traces/$ftid" \
    | jq -e '[.. | objects | .name? // empty] | any(. == "serve/forward")' >/dev/null \
    || fail "forwarder's partial trace has no serve/forward hop"
curl -fsS "$fowner/v1/traces/$ftid" \
    | jq -e '[.. | objects | .name? // empty] | any(. == "serve/job")' >/dev/null \
    || fail "owner's partial trace has no serve/job span"

# ---- Graceful drain: every replica exits cleanly on SIGTERM.
for pid in $PIDS; do
    kill "$pid" 2>/dev/null || true
done
for pid in $PIDS; do
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -gt 150 ] && fail "replica $pid did not exit within 15s of SIGTERM"
        sleep 0.1
    done
done
trap - EXIT INT TERM

echo "fleet-smoke: OK (steady: $(jq -r '.completed' "$STEADY") completed;" \
    "overload: $(jq -r '.completed' "$OVER") completed," \
    "$(jq -r '.shed' "$OVER") shed, $fwd forwarded;" \
    "trace $ftid stitched across $holders replicas)"
