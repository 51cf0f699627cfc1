#!/usr/bin/env sh
# Multi-process serving smoke: boots a 2-shard fbadsd topology plus a
# scatter-gather proxy, floods it with cmd/fbadsload, and gates failover.
#
#   1. healthy renormalize proxy answers the whole flood with 0 errors,
#      0 sheds and 0 deadline expiries;
#   2. chaos pass: a proxy whose shard-0 RPCs are injected 400ms of latency
#      against a 100ms RPC timeout (every shard-0 RPC times out; the
#      circuit breaker trips) still answers the whole flood with 0 errors,
#      serving renormalized/degraded answers from the healthy shard;
#   3. replica pass: shard 0 runs as a two-replica set behind a hedging
#      proxy; one replica is killed mid-flood and the flood must finish
#      with 0 errors, 0 degraded stamps, and the post-kill answer must be
#      byte-identical to the healthy one (replica failover is EXACT);
#   4. unhedged replica pass: a proxy without -hedge-after (sequential
#      failover, the default routing) lists a fresh shard-0 replica FIRST;
#      that preferred replica is killed mid-flood, with the same gates as
#      pass 3, and the proxy's health must tally failovers and no hedges;
#   5. with shard 1 killed, the renormalize proxy still answers everything
#      (0 errors) and stamps responses degraded (gated via the loadgen
#      "degraded" tally);
#   6. a fail-policy proxy over the same (half-dead) topology answers 503
#      with a JSON body naming the dead shard's URL.
#
# Parameterized by environment so CI can scale it down:
#   CATALOG, POPULATION  world size (must match across every process)
#   ACCOUNTS, PROBES, INTERESTS, CONCURRENCY  flood shape
#   OUT_JSON  where the healthy-run loadgen baseline JSON goes
set -eu

CATALOG="${CATALOG:-4000}"
POPULATION="${POPULATION:-2000001}"
ACCOUNTS="${ACCOUNTS:-40}"
PROBES="${PROBES:-5}"
INTERESTS="${INTERESTS:-10}"
CONCURRENCY="${CONCURRENCY:-8}"
OUT_JSON="${OUT_JSON:-proxy-smoke.json}"

SHARD0_PORT=19100
SHARD1_PORT=19101
SHARD0B_PORT=19102
SHARD0C_PORT=19103
PROXY_PORT=19080
FAIL_PROXY_PORT=19081
CHAOS_PROXY_PORT=19082
REPLICA_PROXY_PORT=19083
UNHEDGED_PROXY_PORT=19084

WORLD="-catalog $CATALOG -population $POPULATION"
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    # A shard mid-model-build can shrug off SIGTERM's grace; escalate so an
    # aborted smoke never strands bench-scale processes (and their ports).
    sleep 1
    for pid in $PIDS; do
        kill -9 "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

echo "==> building fbadsd and fbadsload"
go build -o /tmp/proxy-smoke-fbadsd ./cmd/fbadsd
go build -o /tmp/proxy-smoke-fbadsload ./cmd/fbadsload

# Bench-scale worlds (make bench-serving) take far longer to build than the
# CI smoke world, so the boot wait is generous: 600 x 0.2s = 2 minutes.
wait_http() {
    url="$1"; tries=0
    until curl -gfsS "$url" >/dev/null 2>&1; do
        tries=$((tries + 1))
        if [ "$tries" -gt 600 ]; then
            echo "FAIL: $url never came up" >&2
            exit 1
        fi
        sleep 0.2
    done
}

echo "==> booting 2 shard processes"
/tmp/proxy-smoke-fbadsd $WORLD -shard-of 0/2 -shard-listen "127.0.0.1:$SHARD0_PORT" &
PIDS="$PIDS $!"
/tmp/proxy-smoke-fbadsd $WORLD -shard-of 1/2 -shard-listen "127.0.0.1:$SHARD1_PORT" &
SHARD1_PID=$!
PIDS="$PIDS $SHARD1_PID"
wait_http "http://127.0.0.1:$SHARD0_PORT/shard/v1/health"
wait_http "http://127.0.0.1:$SHARD1_PORT/shard/v1/health"

echo "==> booting renormalize and fail proxies"
SHARD_URLS="http://127.0.0.1:$SHARD0_PORT,http://127.0.0.1:$SHARD1_PORT"
/tmp/proxy-smoke-fbadsd $WORLD -proxy "$SHARD_URLS" -degrade renormalize \
    -health-interval 200ms -addr "127.0.0.1:$PROXY_PORT" &
PIDS="$PIDS $!"
/tmp/proxy-smoke-fbadsd $WORLD -proxy "$SHARD_URLS" -degrade fail \
    -health-interval 200ms -addr "127.0.0.1:$FAIL_PROXY_PORT" &
PIDS="$PIDS $!"
SPEC='{"geo_locations":{"countries":["ES"]}}'
wait_http "http://127.0.0.1:$PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"
wait_http "http://127.0.0.1:$FAIL_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"

echo "==> flood 1: healthy 2-shard topology through the renormalize proxy"
/tmp/proxy-smoke-fbadsload -url "http://127.0.0.1:$PROXY_PORT" \
    $WORLD -accounts "$ACCOUNTS" -probes "$PROBES" -interests "$INTERESTS" \
    -concurrency "$CONCURRENCY" -note "proxy 2-process topology (healthy)" \
    -json "$OUT_JSON"
for gate in '"errors": 0' '"shed": 0' '"deadline_exceeded": 0'; do
    grep -q "$gate" "$OUT_JSON" || {
        echo "FAIL: healthy proxy flood missing $gate:" >&2
        cat "$OUT_JSON" >&2
        exit 1
    }
done
if grep -q '"degraded"' "$OUT_JSON"; then
    echo "FAIL: healthy proxy stamped responses degraded" >&2
    exit 1
fi

echo "==> flood 2 (chaos): shard 0 RPCs injected 400ms latency vs a 100ms RPC timeout"
CHAOS_JSON="${OUT_JSON%.json}-chaos.json"
/tmp/proxy-smoke-fbadsd $WORLD -proxy "$SHARD_URLS" -degrade renormalize \
    -chaos-slow-shard 0=400ms -rpc-timeout 100ms \
    -breaker-failures 2 -breaker-open-timeout 5s \
    -health-interval 200ms -addr "127.0.0.1:$CHAOS_PROXY_PORT" &
PIDS="$PIDS $!"
wait_http "http://127.0.0.1:$CHAOS_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"
/tmp/proxy-smoke-fbadsload -url "http://127.0.0.1:$CHAOS_PROXY_PORT" \
    $WORLD -accounts "$ACCOUNTS" -probes "$PROBES" -interests "$INTERESTS" \
    -concurrency "$CONCURRENCY" -request-timeout 5s \
    -note "proxy 2-process topology (shard 0 slow, breaker + renormalize)" \
    -json "$CHAOS_JSON"
# The breaker + renormalize path must absorb the slow shard completely:
# every probe answered (no errors, nothing out-deadlined at 5s) from the
# healthy shard, with the degraded stamp showing renormalization happened.
for gate in '"errors": 0' '"deadline_exceeded": 0'; do
    grep -q "$gate" "$CHAOS_JSON" || {
        echo "FAIL: chaos flood missing $gate:" >&2
        cat "$CHAOS_JSON" >&2
        exit 1
    }
done
grep -q '"degraded"' "$CHAOS_JSON" || {
    echo "FAIL: chaos responses were never stamped degraded (breaker/renormalize path not exercised)" >&2
    cat "$CHAOS_JSON" >&2
    exit 1
}

echo "==> flood 3 (replicas): shard 0 replicated, one replica killed mid-flood"
REPLICA_JSON="${OUT_JSON%.json}-replica.json"
/tmp/proxy-smoke-fbadsd $WORLD -shard-of 0/2 -shard-listen "127.0.0.1:$SHARD0B_PORT" &
SHARD0B_PID=$!
PIDS="$PIDS $SHARD0B_PID"
wait_http "http://127.0.0.1:$SHARD0B_PORT/shard/v1/health"
REPLICA_URLS="http://127.0.0.1:$SHARD0_PORT|http://127.0.0.1:$SHARD0B_PORT,http://127.0.0.1:$SHARD1_PORT"
/tmp/proxy-smoke-fbadsd $WORLD -proxy "$REPLICA_URLS" -degrade renormalize \
    -hedge-after 50ms -health-interval 200ms -addr "127.0.0.1:$REPLICA_PROXY_PORT" &
PIDS="$PIDS $!"
wait_http "http://127.0.0.1:$REPLICA_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"
# Reference answer with every replica healthy: replica failover must
# reproduce it byte-for-byte later.
curl -gfsS "http://127.0.0.1:$REPLICA_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > /tmp/proxy-smoke-replica-healthy.json
/tmp/proxy-smoke-fbadsload -url "http://127.0.0.1:$REPLICA_PROXY_PORT" \
    $WORLD -accounts "$ACCOUNTS" -probes "$PROBES" -interests "$INTERESTS" \
    -concurrency "$CONCURRENCY" \
    -note "proxy 3-process topology (shard 0 x2 replicas, replica b killed mid-flood)" \
    -json "$REPLICA_JSON" &
FLOOD_PID=$!
sleep 0.2
echo "==> killing shard 0 replica b ($SHARD0B_PID) mid-flood"
kill "$SHARD0B_PID"
wait "$SHARD0B_PID" 2>/dev/null || true
wait "$FLOOD_PID"
# A dead REPLICA must be invisible: nothing errored, nothing shed or
# out-deadlined, and — unlike a dead SHARD — nothing renormalized.
for gate in '"errors": 0' '"shed": 0' '"deadline_exceeded": 0'; do
    grep -q "$gate" "$REPLICA_JSON" || {
        echo "FAIL: replica flood missing $gate:" >&2
        cat "$REPLICA_JSON" >&2
        exit 1
    }
done
if grep -q '"degraded"' "$REPLICA_JSON"; then
    echo "FAIL: replica failover stamped responses degraded (failover must be exact)" >&2
    cat "$REPLICA_JSON" >&2
    exit 1
fi
curl -gfsS "http://127.0.0.1:$REPLICA_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > /tmp/proxy-smoke-replica-failover.json
cmp /tmp/proxy-smoke-replica-healthy.json /tmp/proxy-smoke-replica-failover.json || {
    echo "FAIL: answer changed after losing a replica (want byte-identical):" >&2
    cat /tmp/proxy-smoke-replica-healthy.json /tmp/proxy-smoke-replica-failover.json >&2
    exit 1
}

echo "==> flood 4 (unhedged replicas): preferred shard 0 replica killed mid-flood"
UNHEDGED_JSON="${OUT_JSON%.json}-unhedged.json"
/tmp/proxy-smoke-fbadsd $WORLD -shard-of 0/2 -shard-listen "127.0.0.1:$SHARD0C_PORT" &
SHARD0C_PID=$!
PIDS="$PIDS $SHARD0C_PID"
wait_http "http://127.0.0.1:$SHARD0C_PORT/shard/v1/health"
UNHEDGED_URLS="http://127.0.0.1:$SHARD0C_PORT|http://127.0.0.1:$SHARD0_PORT,http://127.0.0.1:$SHARD1_PORT"
# Probes only run at boot here (-health-interval 1h), so the data path
# itself must discover the kill and fail over, however short the flood.
/tmp/proxy-smoke-fbadsd $WORLD -proxy "$UNHEDGED_URLS" -degrade renormalize \
    -health-interval 1h -addr "127.0.0.1:$UNHEDGED_PROXY_PORT" &
PIDS="$PIDS $!"
wait_http "http://127.0.0.1:$UNHEDGED_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC"
curl -gfsS "http://127.0.0.1:$UNHEDGED_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > /tmp/proxy-smoke-unhedged-healthy.json
/tmp/proxy-smoke-fbadsload -url "http://127.0.0.1:$UNHEDGED_PROXY_PORT" \
    $WORLD -accounts "$ACCOUNTS" -probes "$PROBES" -interests "$INTERESTS" \
    -concurrency "$CONCURRENCY" \
    -note "proxy 3-process topology (shard 0 x2 replicas, unhedged, preferred replica killed mid-flood)" \
    -json "$UNHEDGED_JSON" &
FLOOD_PID=$!
sleep 0.2
echo "==> killing preferred shard 0 replica ($SHARD0C_PID) mid-flood"
kill "$SHARD0C_PID"
wait "$SHARD0C_PID" 2>/dev/null || true
wait "$FLOOD_PID"
# Sequential failover off the preferred replica must be as invisible as
# the hedged lane's: no errors, sheds, expiries or degraded stamps.
for gate in '"errors": 0' '"shed": 0' '"deadline_exceeded": 0'; do
    grep -q "$gate" "$UNHEDGED_JSON" || {
        echo "FAIL: unhedged replica flood missing $gate:" >&2
        cat "$UNHEDGED_JSON" >&2
        exit 1
    }
done
if grep -q '"degraded"' "$UNHEDGED_JSON"; then
    echo "FAIL: unhedged replica failover stamped responses degraded (failover must be exact)" >&2
    cat "$UNHEDGED_JSON" >&2
    exit 1
fi
curl -gfsS "http://127.0.0.1:$UNHEDGED_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC" \
    > /tmp/proxy-smoke-unhedged-failover.json
cmp /tmp/proxy-smoke-unhedged-healthy.json /tmp/proxy-smoke-unhedged-failover.json || {
    echo "FAIL: answer changed after losing the preferred replica (want byte-identical):" >&2
    cat /tmp/proxy-smoke-unhedged-healthy.json /tmp/proxy-smoke-unhedged-failover.json >&2
    exit 1
}
HEALTH=$(curl -gfsS "http://127.0.0.1:$UNHEDGED_PROXY_PORT/v9.0/serving/health")
case "$HEALTH" in
*'"hedged"'*)
    echo "FAIL: unhedged proxy tallied hedges: $HEALTH" >&2
    exit 1
    ;;
*'"failovers"'*) ;;
*)
    echo "FAIL: unhedged proxy never failed over off the killed replica: $HEALTH" >&2
    exit 1
    ;;
esac

echo "==> killing shard 1 ($SHARD1_PID)"
kill "$SHARD1_PID"
wait "$SHARD1_PID" 2>/dev/null || true
sleep 1  # > health-interval: let the probes notice

echo "==> flood 5: one shard down, renormalize proxy must answer everything"
DEGRADED_JSON="${OUT_JSON%.json}-degraded.json"
/tmp/proxy-smoke-fbadsload -url "http://127.0.0.1:$PROXY_PORT" \
    $WORLD -accounts "$ACCOUNTS" -probes "$PROBES" -interests "$INTERESTS" \
    -concurrency "$CONCURRENCY" -note "proxy 2-process topology (shard 1 down, renormalize)" \
    -json "$DEGRADED_JSON"
grep -q '"errors": 0' "$DEGRADED_JSON" || {
    echo "FAIL: degraded proxy flood had request errors:" >&2
    cat "$DEGRADED_JSON" >&2
    exit 1
}
grep -q '"degraded"' "$DEGRADED_JSON" || {
    echo "FAIL: renormalize responses with a dead shard were not stamped degraded" >&2
    cat "$DEGRADED_JSON" >&2
    exit 1
}

echo "==> fail-policy proxy must 503 naming the dead shard"
BODY=$(curl -gs -w '\n%{http_code}' \
    "http://127.0.0.1:$FAIL_PROXY_PORT/v9.0/act_1/reachestimate?targeting_spec=$SPEC")
STATUS=$(printf '%s' "$BODY" | tail -n 1)
PAYLOAD=$(printf '%s' "$BODY" | sed '$d')
if [ "$STATUS" != "503" ]; then
    echo "FAIL: fail-policy proxy answered HTTP $STATUS, want 503 ($PAYLOAD)" >&2
    exit 1
fi
case "$PAYLOAD" in
*"127.0.0.1:$SHARD1_PORT"*) ;;
*)
    echo "FAIL: 503 body does not name the dead shard: $PAYLOAD" >&2
    exit 1
    ;;
esac

echo "PASS: proxy topology served every request, degraded honestly, and failed loudly"
