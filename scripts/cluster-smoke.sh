#!/usr/bin/env bash
# End-to-end smoke test of the horizontal scaling layer: boots a
# 3-replica csserve cluster behind csgate and asserts the cluster
# design's promises with jq —
#
#   * compute-once: a cold wave of distinct specs through the gate
#     causes at most ONE fresh computation per key cluster-wide
#     (consistent-hash routing gives every key one owner; coalescing
#     dedupes concurrent duplicates on that owner);
#   * warm-wave speedup through the gate, same gate as the single-node
#     smoke (>= 10x server-side elapsed);
#   * rolling restart: with load flowing through the gate, one replica
#     is drained and restarted — zero transport errors and no status
#     other than 200/429 reaches the client, and the wave after the
#     restart is served entirely without fresh computation (warm
#     handoff on drain + warm start on boot);
#   * the peer protocol: a non-owner replica asked directly for a
#     cached key pulls it from the owner (steal fill, peer_filled).
#
# Artifacts (gate + replica logs, csload reports, trace dumps,
# /debug/slo snapshots) land in $CLUSTER_SMOKE_DIR (default
# cluster-smoke-out) for CI to upload on failure.
#
# Requires: jq, curl.
set -euo pipefail

SMOKE_DIR="${CLUSTER_SMOKE_DIR:-cluster-smoke-out}"
BASE_PORT="${CLUSTER_SMOKE_PORT:-18180}"
GO="${GO:-go}"

R0_PORT=$BASE_PORT
R1_PORT=$((BASE_PORT + 1))
R2_PORT=$((BASE_PORT + 2))
GATE_PORT=$((BASE_PORT + 3))
R0="http://127.0.0.1:$R0_PORT"
R1="http://127.0.0.1:$R1_PORT"
R2="http://127.0.0.1:$R2_PORT"
GATE="http://127.0.0.1:$GATE_PORT"
PEERS="$R0,$R1,$R2"

mkdir -p "$SMOKE_DIR"
rm -f "$SMOKE_DIR"/*.json "$SMOKE_DIR"/*.txt "$SMOKE_DIR"/*.log

R0_PID=""
R1_PID=""
R2_PID=""
GATE_PID=""
cleanup() {
  status=$?
  if [ $status -ne 0 ]; then
    echo "cluster-smoke: FAILED (artifacts in $SMOKE_DIR)" >&2
    # Post-mortem: trace stores and SLO burn rates from every tier.
    curl -sf "$GATE/debug/traces?limit=200" >"$SMOKE_DIR/gate-traces-failure.json" 2>/dev/null || true
    curl -sf "$GATE/debug/slo" >"$SMOKE_DIR/gate-slo-failure.json" 2>/dev/null || true
    for i in 0 1 2; do
      port=$((BASE_PORT + i))
      curl -sf "http://127.0.0.1:$port/debug/traces?limit=200" \
        >"$SMOKE_DIR/replica$i-traces-failure.json" 2>/dev/null || true
      curl -sf "http://127.0.0.1:$port/debug/slo" \
        >"$SMOKE_DIR/replica$i-slo-failure.json" 2>/dev/null || true
    done
  fi
  for pid in "$GATE_PID" "$R0_PID" "$R1_PID" "$R2_PID"; do
    [ -n "$pid" ] && kill -TERM "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  exit $status
}
trap cleanup EXIT

$GO build -o bin/csserve ./cmd/csserve
$GO build -o bin/csgate ./cmd/csgate
$GO build -o bin/csload ./cmd/csload

wait_healthy() {
  local url=$1
  for _ in $(seq 1 100); do
    if curl -sf "$url/v1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "cluster-smoke: $url never became healthy" >&2
  return 1
}

start_replica() {
  local idx=$1 port=$2
  ./bin/csserve -addr "127.0.0.1:$port" -self "http://127.0.0.1:$port" \
    -peers "$PEERS" -trace-sample 1 -runtime-sample -1s \
    2>>"$SMOKE_DIR/replica$idx.log" >>"$SMOKE_DIR/replica$idx.out" &
}

echo "cluster-smoke: booting 3 replicas + gate"
start_replica 0 "$R0_PORT"; R0_PID=$!
start_replica 1 "$R1_PORT"; R1_PID=$!
start_replica 2 "$R2_PORT"; R2_PID=$!
wait_healthy "$R0"
wait_healthy "$R1"
wait_healthy "$R2"

./bin/csgate -addr "127.0.0.1:$GATE_PORT" -replicas "$PEERS" \
  -probe 100ms -trace-sample 1 \
  2>"$SMOKE_DIR/gate.log" >"$SMOKE_DIR/gate.out" &
GATE_PID=$!
wait_healthy "$GATE"
curl -sf "$GATE/v1/healthz" >"$SMOKE_DIR/gate-healthz.json"
jq -e '.status == "ok" and .up == 3 and .ring_size == 3' "$SMOKE_DIR/gate-healthz.json"

# --- compute-once and warm speedup through the gate ------------------
echo "cluster-smoke: cold/warm waves through the gate"
./bin/csload -addr "$GATE" -endpoint plan \
  -requests 24 -concurrency 8 -waves 2 >"$SMOKE_DIR/load-gate.json"
jq -e '.waves[0].ok == 24 and .waves[1].ok == 24' "$SMOKE_DIR/load-gate.json"
jq -e '[.waves[].errors] | add == 0' "$SMOKE_DIR/load-gate.json"
# The cluster-wide compute-once invariant: at most one fresh
# computation per key per wave. Every request for a key lands on its
# owner replica, where cache + coalescing dedupe it.
jq -e '.waves[0].max_fresh_per_key <= 1' "$SMOKE_DIR/load-gate.json"
# The warm wave recomputes nothing anywhere in the cluster...
jq -e '.waves[1].fresh == 0' "$SMOKE_DIR/load-gate.json"
# ...and is served >= 10x faster end to end, through the gate.
jq -e '.speedup_server_elapsed >= 10' "$SMOKE_DIR/load-gate.json"

# The gate spread the 24 distinct keys: more than one replica served.
curl -sf "$GATE/metrics" >"$SMOKE_DIR/gate-metrics.txt"
routed=$(grep -c '^cs_gate_routed_total{replica="[^"]*"} [1-9]' "$SMOKE_DIR/gate-metrics.txt" || true)
if [ "$routed" -lt 2 ]; then
  echo "cluster-smoke: only $routed replicas saw traffic for 24 distinct keys" >&2
  exit 1
fi

# --- the peer protocol, observed directly ----------------------------
echo "cluster-smoke: non-owner steal fills from the owner"
# Ask every replica directly for one warmed key: the owner answers
# cached, the two non-owners must pull it over the peer protocol
# rather than recompute.
body='{"life":"poly","lifespan":600,"d":3,"c":1}'
: >"$SMOKE_DIR/steal-direct.json"
for url in "$R0" "$R1" "$R2"; do
  curl -sf -X POST -H 'Content-Type: application/json' -d "$body" \
    "$url/v1/plan" >>"$SMOKE_DIR/steal-direct.json"
done
jq -s -e '[.[] | select(.peer_filled)] | length >= 1' "$SMOKE_DIR/steal-direct.json"
jq -s -e 'all(.[]; .cached or .coalesced or .peer_filled)' "$SMOKE_DIR/steal-direct.json"
curl -sf "$R0/metrics" >"$SMOKE_DIR/replica0-metrics.txt"
grep -q 'cs_cluster_peer_serve_total{outcome="hit"}' "$SMOKE_DIR/replica0-metrics.txt"

# --- rolling replica restart under load ------------------------------
echo "cluster-smoke: rolling restart of replica 0 under load"
./bin/csload -addr "$GATE" -endpoint plan \
  -requests 24 -concurrency 8 -waves 20 >"$SMOKE_DIR/load-rolling.json" &
LOAD_PID=$!
sleep 0.3
kill -TERM "$R0_PID"
wait "$R0_PID"
grep -q drained "$SMOKE_DIR/replica0.out"
start_replica 0 "$R0_PORT"; R0_PID=$!
wait_healthy "$R0"
wait "$LOAD_PID"
# Zero transport errors and nothing but 200/429 reached the client
# while a third of the cluster went away and came back.
jq -e 'all(.waves[]; .errors == 0)' "$SMOKE_DIR/load-rolling.json"
jq -e 'all(.waves[]; (.status | keys) - ["200", "429"] == [])' "$SMOKE_DIR/load-rolling.json"

# Wait for the gate's prober to route to the restarted replica again,
# then demand a fully warm wave: the restarted replica must serve its
# arc from the handed-off-and-warm-started cache, not recompute it.
for _ in $(seq 1 50); do
  if curl -sf "$GATE/v1/healthz" | jq -e '.up == 3' >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
curl -sf "$GATE/v1/healthz" >"$SMOKE_DIR/gate-healthz-after.json"
jq -e '.up == 3 and .status == "ok"' "$SMOKE_DIR/gate-healthz-after.json"

./bin/csload -addr "$GATE" -endpoint plan \
  -requests 24 -concurrency 8 -waves 1 >"$SMOKE_DIR/load-postrestart.json"
jq -e '.waves[0].ok == 24 and .waves[0].errors == 0' "$SMOKE_DIR/load-postrestart.json"
jq -e '.waves[0].fresh == 0' "$SMOKE_DIR/load-postrestart.json"

# --- gate-level observability ----------------------------------------
echo "cluster-smoke: gate SLO and trace surfaces"
curl -sf "$GATE/debug/slo" >"$SMOKE_DIR/gate-slo.json"
jq -e '.total.requests >= 1 and .total.errors == 0' "$SMOKE_DIR/gate-slo.json"
curl -sf "$GATE/debug/traces?limit=50" >"$SMOKE_DIR/gate-traces.json"
jq -e '.traces | length >= 1' "$SMOKE_DIR/gate-traces.json"
# Gate traces carry the proxy phase with the chosen replica.
jq -e '[.traces[] | select([.phases[]? | select(.name == "proxy")] | length > 0)]
  | length >= 1' "$SMOKE_DIR/gate-traces.json"

# The client-side shard map agrees with the gate: csload -targets
# routes by the same ring, so a warm wave straight at the replicas is
# also fully deduped.
echo "cluster-smoke: csload -targets client-side shard map"
./bin/csload -targets "$PEERS" -endpoint plan \
  -requests 24 -concurrency 8 -waves 1 >"$SMOKE_DIR/load-targets.json"
jq -e '.waves[0].ok == 24 and .waves[0].errors == 0' "$SMOKE_DIR/load-targets.json"
jq -e '.waves[0].fresh == 0' "$SMOKE_DIR/load-targets.json"
jq -e '.waves[0].targets | length == 3' "$SMOKE_DIR/load-targets.json"

echo "cluster-smoke: OK"
