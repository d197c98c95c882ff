#!/usr/bin/env bash
# Boots the full four-tier Janus stack with the observability endpoints
# enabled and asserts every daemon answers /metrics with its janus_* series.
# Used by CI as a cheap end-to-end check that the debugz wiring in the
# binaries (not just the libraries) works. It ends with a seeded janus-dbd
# master and a -follow standby, promoted by SIGUSR1, which must hold every
# seeded rule when it shuts down.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$BIN"' EXIT

echo "building binaries..."
for d in janus-dbd janusd janus-router janus-lb janus-coordinator; do
    go build -o "$BIN/$d" "./cmd/$d"
done

# Every daemon binds port 0 and logs each address it bound as
# "<what> on <scheme>://<addr>", the format daemon.Listening
# (internal/daemon) writes; addr_of reads the addresses back from those
# lines as daemon.ListenAddr does in Go, so no fixed port can collide with
# another job on the host.
wait_log() { # file text
    for _ in $(seq 1 100); do
        grep -q "$2" "$1" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "FAIL: $1 never logged \"$2\"" >&2
    cat "$1" >&2
    return 1
}

addr_of() { # file what: the <addr> of the "<what> on <scheme>://<addr>" line
    wait_log "$1" "$2 on [a-z]*://" || return 1
    sed -n "s|.*$2 on [a-z]*://\([^ ]*\).*|\1|p" "$1" | head -n 1
}

ANY=127.0.0.1:0

"$BIN/janus-dbd" -addr "$ANY" 2>"$BIN/db.log" &
"$BIN/janus-coordinator" -addr "$ANY" -metrics-addr "$ANY" 2>"$BIN/coord.log" &
DB=$(addr_of "$BIN/db.log" "master")
COORD=$(addr_of "$BIN/coord.log" "membership coordinator")
COORD_M=$(addr_of "$BIN/coord.log" "metrics/debug")
"$BIN/janusd" -addr "$ANY" -db "$DB" -sync 0 -checkpoint 0 \
    -default-rate 1000 -default-capacity 1000 -metrics-addr "$ANY" 2>"$BIN/qos.log" &
QOS=$(addr_of "$BIN/qos.log" "QoS server")
QOS_M=$(addr_of "$BIN/qos.log" "metrics/debug")
"$BIN/janus-router" -addr "$ANY" -backends "$QOS" \
    -timeout 50ms -metrics-addr "$ANY" 2>"$BIN/router.log" &
ROUTER=$(addr_of "$BIN/router.log" "request router")
ROUTER_M=$(addr_of "$BIN/router.log" "metrics/debug")
"$BIN/janus-lb" -addr "$ANY" -backends "$ROUTER" \
    -metrics-addr "$ANY" -trace-sample 1 2>"$BIN/lb.log" &
LB=$(addr_of "$BIN/lb.log" "gateway load balancer")
LB_M=$(addr_of "$BIN/lb.log" "metrics/debug")
echo "db $DB, coordinator $COORD, janusd $QOS, router $ROUTER, lb $LB"

wait_http() {
    for _ in $(seq 1 50); do
        curl -sf "$1" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "FAIL: $1 never came up" >&2
    return 1
}

wait_http "http://$LB_M/healthz"

echo "driving traffic..."
for _ in $(seq 1 10); do
    curl -sf "http://$LB/qos?key=smoke" >/dev/null
done

check_metrics() { # addr series
    body=$(curl -sf "http://$1/metrics")
    if ! grep -q "^$2" <<<"$body"; then
        echo "FAIL: http://$1/metrics missing $2" >&2
        echo "$body" | head -40 >&2
        return 1
    fi
    echo "ok: http://$1/metrics has $2"
}

check_metrics "$LB_M" "janus_lb_requests_total 10"
check_metrics "$ROUTER_M" "janus_router_requests_total 10"
check_metrics "$QOS_M" "janus_qos_decisions_total"
check_metrics "$COORD_M" "janus_coordinator_epoch"

echo "checking cumulative histogram buckets..."
check_metrics "$QOS_M" 'janus_qos_sojourn_seconds_bucket{stage="total",le="+Inf"}'
check_metrics "$LB_M" 'janus_lb_latency_seconds_bucket{le="+Inf"}'

echo "checking build identity..."
for m in "$QOS_M" "$ROUTER_M" "$LB_M" "$COORD_M"; do
    check_metrics "$m" "janus_build_info{"
done

# Every admission is decided on janusd, so its ledger is the only one.
echo "checking admission audit..."
verdict=$(curl -sf "http://$QOS_M/debug/audit")
if ! grep -q '"verdict": *"ok"' <<<"$verdict"; then
    echo "FAIL: http://$QOS_M/debug/audit not ok: $verdict" >&2
    exit 1
fi
echo "ok: http://$QOS_M/debug/audit verdict ok"

echo "checking flight recorder..."
for m in "$QOS_M" "$ROUTER_M" "$LB_M" "$COORD_M"; do
    if ! curl -sf "http://$m/debug/events" | grep -q '"recorded"'; then
        echo "FAIL: http://$m/debug/events missing" >&2
        exit 1
    fi
    echo "ok: http://$m/debug/events answers"
done

echo "checking readiness..."
for m in "$QOS_M" "$ROUTER_M" "$LB_M" "$COORD_M"; do
    if ! curl -sf "http://$m/readyz" | grep -q '"ready": *true'; then
        echo "FAIL: http://$m/readyz not ready" >&2
        exit 1
    fi
    echo "ok: http://$m/readyz ready"
done

echo "checking trace capture..."
traces=$(curl -sf "http://$LB_M/debug/traces")
if ! grep -q '"hop": *"qosserver"' <<<"$traces"; then
    echo "FAIL: lb /debug/traces has no qosserver span" >&2
    echo "$traces" | head -40 >&2
    exit 1
fi
echo "ok: lb /debug/traces contains a full lb->router->qosserver trace"

buckets=$(curl -sf "http://$QOS_M/debug/qos")
if ! grep -q '"key": *"smoke"' <<<"$buckets"; then
    echo "FAIL: janusd /debug/qos missing the smoke bucket" >&2
    echo "$buckets" >&2
    exit 1
fi
echo "ok: janusd /debug/qos shows the bucket table"

echo "checking a database standby..."
"$BIN/janus-dbd" -addr "$ANY" -seed 1000 2>"$BIN/db-master.log" &
DB_MASTER=$(addr_of "$BIN/db-master.log" "master")
"$BIN/janus-dbd" -addr "$ANY" -follow "$DB_MASTER" 2>"$BIN/db-standby.log" &
STANDBY=$!
wait_log "$BIN/db-standby.log" "standby on"
kill -USR1 "$STANDBY"
wait_log "$BIN/db-standby.log" "promoted to master"
kill -TERM "$STANDBY"
wait "$STANDBY"
if ! grep -q "1000 rules at shutdown" "$BIN/db-standby.log"; then
    echo "FAIL: promoted standby did not hold the master's 1000 rules" >&2
    cat "$BIN/db-standby.log" >&2
    exit 1
fi
echo "ok: promoted standby shut down with 1000 rules"

echo "smoke-metrics: PASS"
