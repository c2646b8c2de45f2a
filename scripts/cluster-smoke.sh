#!/usr/bin/env bash
# Cluster failover smoke, the CI cluster job's script (mirrored by
# `make cluster`): boot a controller plus three real etraind shard
# processes (race-instrumented builds), drive a device fleet through
# etrain-load -cluster, SIGKILL one shard mid-run, and require
#
#   1. every session still completes (zero decision loss: etrain-load
#      exits non-zero if any device fails),
#   2. the controller registered the death,
#   3. the fleet-wide merged stats block is byte-identical to a
#      single-process run of the same fleet.
#
# Determinism makes (3) the strong check: the per-device decision
# streams are pure functions of the device set, so the device-order
# fleet fold only matches if no decision was lost or altered by the
# failover.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
DEVICES=${DEVICES:-200}
HORIZON=${HORIZON:-2m}
CONTROL=127.0.0.1:14800
OPS=127.0.0.1:14801

WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

$GO build -race -o "$WORK/etraind" ./cmd/etraind
$GO build -race -o "$WORK/etrain-load" ./cmd/etrain-load
$GO build -o "$WORK/etrain-ctl" ./cmd/etrain-ctl
CTL="$WORK/etrain-ctl -ops http://$OPS"

# disown keeps bash from reporting the cleanup trap's kill -9 on exit.
"$WORK/etraind" -control "$CONTROL" -ops "$OPS" -beat-timeout 2s 2>"$WORK/ctrl.log" &
PIDS+=($!)
disown
for id in 1 2 3; do
    "$WORK/etraind" -addr "127.0.0.1:1481$id" -join "$CONTROL" -shard-id "$id" \
        -beat 100ms 2>"$WORK/shard$id.log" &
    eval "SHARD$id=$!"
    PIDS+=($!)
    disown
done
$CTL wait shards=3

# Single-process baseline of the same fleet over in-process loopback.
"$WORK/etrain-load" -devices "$DEVICES" -conns 8 -horizon "$HORIZON" -quiet \
    >"$WORK/single.txt"
grep '^fleet' "$WORK/single.txt" >"$WORK/single-fleet.txt"

# The cluster run, with shard 2 SIGKILLed once it is serving real
# sessions (the accepted total is fed by each shard's stats beat).
"$WORK/etrain-load" -cluster "$CONTROL" -devices "$DEVICES" -conns 8 \
    -horizon "$HORIZON" -quiet \
    >"$WORK/cluster.txt" &
LOAD=$!
PIDS+=($LOAD)
$CTL -timeout 60s wait "accepted=$((DEVICES / 10))"
kill -9 "$SHARD2"
echo "cluster-smoke: shard 2 killed mid-run"
wait "$LOAD"

$CTL -timeout 15s wait deaths=1
grep '^fleet' "$WORK/cluster.txt" >"$WORK/cluster-fleet.txt"
diff -u "$WORK/single-fleet.txt" "$WORK/cluster-fleet.txt"

echo "cluster-smoke: PASS"
grep -E '^(cluster|recovery)' "$WORK/cluster.txt" || true
cat "$WORK/cluster-fleet.txt"
