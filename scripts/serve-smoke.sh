#!/usr/bin/env bash
# End-to-end smoke test of the serving layer: boots csserve, drives it
# with csload, and asserts the scaling behaviour the design promises —
# cache speedup on identical requests, coalescing of concurrent
# duplicates, 429 load-shedding on a saturated pool, a live /metrics
# surface, and stitched request traces whose per-phase attribution
# satisfies queue + coalesce + compute <= total. Also gates the runtime
# observability surface: the runtime/metrics bridge series in the
# scrape, a well-formed /debug/slo burn-rate report, the standard
# delta allocation profile, the healthz runtime block, and the csbench
# -compare regression gate (including a negative test that a synthetic
# breach exits nonzero). Artifacts (server log, metrics scrape, load
# reports, trace store dump) land in $SMOKE_DIR for CI to upload on
# failure.
#
# Requires: jq, curl.
set -euo pipefail

SMOKE_DIR="${SMOKE_DIR:-serve-smoke-out}"
PORT="${SMOKE_PORT:-18080}"
BURST_PORT=$((PORT + 1))
GO="${GO:-go}"

mkdir -p "$SMOKE_DIR"
rm -f "$SMOKE_DIR"/*.json "$SMOKE_DIR"/*.txt "$SMOKE_DIR"/*.log

SERVER_PID=""
BURST_PID=""
cleanup() {
  status=$?
  if [ $status -ne 0 ]; then
    echo "serve-smoke: FAILED (artifacts in $SMOKE_DIR)" >&2
    # Grab the trace store before the server dies.
    [ -n "$SERVER_PID" ] && curl -sf "http://127.0.0.1:$PORT/debug/traces?limit=200" \
      >"$SMOKE_DIR/traces-failure.json" 2>/dev/null || true
  fi
  [ -n "$SERVER_PID" ] && kill -TERM "$SERVER_PID" 2>/dev/null || true
  [ -n "$BURST_PID" ] && kill -TERM "$BURST_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  exit $status
}
trap cleanup EXIT

$GO build -o bin/csserve ./cmd/csserve
$GO build -o bin/csload ./cmd/csload

wait_healthy() {
  local port=$1
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:$port/v1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "serve-smoke: server on :$port never became healthy" >&2
  return 1
}

# --- main server: cache, coalescing, metrics, trace assertions ------
# -trace-sample 1 keeps every request's trace so the gates below see a
# fully populated store; -runtime-sample 250ms makes the runtime bridge
# publish within the smoke's lifetime.
./bin/csserve -addr "127.0.0.1:$PORT" -trace-sample 1 \
  -runtime-sample 250ms \
  2>"$SMOKE_DIR/server.log" >"$SMOKE_DIR/server.out" &
SERVER_PID=$!
wait_healthy "$PORT"

echo "serve-smoke: cold/warm plan waves"
./bin/csload -addr "http://127.0.0.1:$PORT" -endpoint plan \
  -requests 24 -concurrency 8 -waves 2 >"$SMOKE_DIR/load-plan.json"
jq -e '.waves[0].ok == 24 and .waves[1].ok == 24' "$SMOKE_DIR/load-plan.json"
jq -e '[.waves[].errors] | add == 0' "$SMOKE_DIR/load-plan.json"
jq -e '.waves[1].cached == 24' "$SMOKE_DIR/load-plan.json"
# The acceptance criterion: the warm wave of identical specs is served
# >= 10x faster (server-side elapsed, immune to HTTP jitter).
jq -e '.speedup_server_elapsed >= 10' "$SMOKE_DIR/load-plan.json"
# Client-side tail reporting: every wave names its slowest request's
# trace ID, and max is at least p99.
jq -e 'all(.waves[]; .max_ms >= .p99_ms and (.slowest_trace_id | length == 32))' \
  "$SMOKE_DIR/load-plan.json"

echo "serve-smoke: concurrent identical estimates coalesce"
./bin/csload -addr "http://127.0.0.1:$PORT" -endpoint estimate \
  -requests 8 -concurrency 8 -waves 1 -distinct 1 -episodes 300000 \
  >"$SMOKE_DIR/load-estimate.json"
jq -e '.waves[0].ok == 8 and .waves[0].errors == 0' "$SMOKE_DIR/load-estimate.json"
jq -e '.waves[0] | (.requests - .cached - .coalesced) <= 1' "$SMOKE_DIR/load-estimate.json"

echo "serve-smoke: metrics surface"
curl -sf "http://127.0.0.1:$PORT/metrics" >"$SMOKE_DIR/metrics.txt"
grep -q 'cs_http_request_ms{route="plan",quantile="0.99"}' "$SMOKE_DIR/metrics.txt"
# Cache hit ratio must be nonzero after the warm wave.
awk '$1 == "cs_serve_cache_hits_total{route=\"plan\"}" { hits = $2 }
     END { exit (hits > 0 ? 0 : 1) }' "$SMOKE_DIR/metrics.txt"

echo "serve-smoke: runtime/metrics bridge series in the scrape"
# The bridge samples every 250ms, so by now the gauges and the
# delta-published cumulative counters must all be in the exposition.
grep -q '^cs_runtime_goroutines ' "$SMOKE_DIR/metrics.txt"
grep -q '^cs_runtime_heap_live_bytes ' "$SMOKE_DIR/metrics.txt"
grep -q '^cs_runtime_gc_cycles_total ' "$SMOKE_DIR/metrics.txt"
grep -q '^cs_runtime_alloc_bytes_total ' "$SMOKE_DIR/metrics.txt"
grep -q 'cs_runtime_gc_pause_ms{quantile="0.99"}' "$SMOKE_DIR/metrics.txt"
grep -q 'cs_runtime_sched_latency_ms{quantile="0.5"}' "$SMOKE_DIR/metrics.txt"
# The load waves allocated: the alloc-throughput counter is nonzero.
awk '$1 == "cs_runtime_alloc_objects_total" { n = $2 }
     END { exit (n > 0 ? 0 : 1) }' "$SMOKE_DIR/metrics.txt"

echo "serve-smoke: trace store and latency attribution"
curl -sf "http://127.0.0.1:$PORT/debug/traces?limit=200" >"$SMOKE_DIR/traces.json"
jq -e '.traces | length >= 1' "$SMOKE_DIR/traces.json"
# csload roots every request with a traceparent, so server spans must
# be stitched under remote parents.
jq -e '[.traces[] | select(.remote)] | length >= 1' "$SMOKE_DIR/traces.json"
# The attribution invariant: accounted phase time never exceeds the
# request's total.
jq -e 'all(.traces[];
  (.breakdown.queue_ms // 0) + (.breakdown.coalesce_ms // 0) + (.breakdown.compute_ms // 0)
  <= .breakdown.total_ms)' "$SMOKE_DIR/traces.json"
# Cold estimates did real work: some trace accounts compute time.
jq -e '[.traces[] | select((.breakdown.compute_ms // 0) > 0)] | length >= 1' \
  "$SMOKE_DIR/traces.json"

echo "serve-smoke: SLO burn-rate report"
curl -sf "http://127.0.0.1:$PORT/debug/slo" >"$SMOKE_DIR/slo.json"
jq -e '.availability_objective > 0 and .availability_objective < 1' "$SMOKE_DIR/slo.json"
jq -e '.windows | length >= 1' "$SMOKE_DIR/slo.json"
# The load waves were all 2xx: requests counted, burn rates well-formed
# and quiet (healthz polling is excluded from the SLI, so the counts
# reflect plan/estimate traffic only).
jq -e '.total.requests >= 1 and .total.errors == 0' "$SMOKE_DIR/slo.json"
jq -e 'all(.windows[]; .error_burn_rate >= 0 and .latency_burn_rate >= 0)' \
  "$SMOKE_DIR/slo.json"
# All four burn-rate alert pairs are present; with zero errors the
# availability pairs must be quiet. (The latency pairs may legitimately
# fire: the heavy Monte-Carlo estimates exceed the default 250ms
# threshold, which is the alert doing its job.)
jq -e '.alerts | length == 4 and all(.[]; .burn_threshold > 0)' "$SMOKE_DIR/slo.json"
jq -e 'all(.alerts[] | select(.sli == "availability"); .firing == false)' \
  "$SMOKE_DIR/slo.json"

echo "serve-smoke: delta allocation profile"
# The standard library's delta profile: allocations over the last
# second, as a gzipped pprof protobuf.
curl -sf "http://127.0.0.1:$PORT/debug/pprof/allocs?seconds=1" \
  >"$SMOKE_DIR/delta-allocs.pb.gz"
gzip -t "$SMOKE_DIR/delta-allocs.pb.gz"
# A heap profile with gc=1 forces a collection, so the healthz gate
# below can demand a nonzero gc_cycles even on a fast machine.
curl -sf "http://127.0.0.1:$PORT/debug/pprof/heap?gc=1" >/dev/null

echo "serve-smoke: healthz diagnostics"
curl -sf "http://127.0.0.1:$PORT/v1/healthz" >"$SMOKE_DIR/healthz.json"
jq -e '.version != "" and (.go_version | startswith("go")) and .num_cpu >= 1' \
  "$SMOKE_DIR/healthz.json"
jq -e '.plan_cache.per_shard | length >= 1' "$SMOKE_DIR/healthz.json"
# The runtime block: GC accounting (the heap profile above forced a
# cycle), live heap numbers, and a quiet leak watchdog.
jq -e '.runtime.gc_cycles >= 1 and .runtime.gc_pause_total_ms > 0' \
  "$SMOKE_DIR/healthz.json"
jq -e '.runtime.heap_alloc_bytes > 0 and .runtime.num_goroutine >= 1' \
  "$SMOKE_DIR/healthz.json"
jq -e '.runtime.goroutine_leak_suspected == false' "$SMOKE_DIR/healthz.json"

echo "serve-smoke: graceful drain"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q drained "$SMOKE_DIR/server.out"
SERVER_PID=""

# --- tiny burst server: full queue must shed load with 429 ----------
echo "serve-smoke: 429 load shedding on a saturated pool"
./bin/csserve -addr "127.0.0.1:$BURST_PORT" -workers 1 -queue 1 \
  2>"$SMOKE_DIR/burst-server.log" >/dev/null &
BURST_PID=$!
wait_healthy "$BURST_PORT"
./bin/csload -addr "http://127.0.0.1:$BURST_PORT" -endpoint estimate \
  -requests 16 -concurrency 16 -waves 1 -episodes 400000 \
  >"$SMOKE_DIR/load-burst.json"
# The burst must mix shed (429) and served (200) responses with zero
# transport errors: load shedding never drops an in-flight response.
jq -e '.waves[0].errors == 0' "$SMOKE_DIR/load-burst.json"
jq -e '.waves[0].status["429"] >= 1' "$SMOKE_DIR/load-burst.json"
jq -e '.waves[0].status["200"] >= 1' "$SMOKE_DIR/load-burst.json"
jq -e '.waves[0].status | keys - ["200", "429"] == []' "$SMOKE_DIR/load-burst.json"
# Every response is in, so nothing waits for a slot, and the server
# counted exactly the 429s the client saw.
curl -sf "http://127.0.0.1:$BURST_PORT/v1/healthz" >"$SMOKE_DIR/burst-healthz.json"
jq -e '.queue_depth == 0' "$SMOKE_DIR/burst-healthz.json"
curl -sf "http://127.0.0.1:$BURST_PORT/metrics" >"$SMOKE_DIR/burst-metrics.txt"
rejected=$(awk '$1 == "cs_serve_rejected_total" { print $2 }' "$SMOKE_DIR/burst-metrics.txt")
jq -e --argjson rejected "${rejected:-null}" '.waves[0].status["429"] == $rejected' \
  "$SMOKE_DIR/load-burst.json"
kill -TERM "$BURST_PID"
wait "$BURST_PID"
BURST_PID=""

# --- perf-history regression gate: deterministic file-vs-file --------
echo "serve-smoke: csbench -compare pass/breach exit codes"
$GO build -o bin/csbench ./cmd/csbench
cat >"$SMOKE_DIR/perf-base.json" <<'EOF'
{"suite":"smoke","go_version":"go0.0","runs":1,"benchmarks":[
  {"name":"hot/path","ns_per_op_min":1000,"ns_per_op_median":1100,
   "allocs_per_op_min":4,"allocs_per_op_median":4}]}
EOF
cat >"$SMOKE_DIR/perf-breach.json" <<'EOF'
{"suite":"smoke","go_version":"go0.0","runs":1,"benchmarks":[
  {"name":"hot/path","ns_per_op_min":9000,"ns_per_op_median":9900,
   "allocs_per_op_min":4,"allocs_per_op_median":4}]}
EOF
# Identical baseline and candidate must pass with a clean diff artifact.
./bin/csbench -compare "$SMOKE_DIR/perf-base.json" \
  -against "$SMOKE_DIR/perf-base.json" \
  -compare-out "$SMOKE_DIR/perf-diff-ok.json" >/dev/null
jq -e '.regressed == false and .breaches == 0' "$SMOKE_DIR/perf-diff-ok.json"
# A 9x ns/op regression must breach the budget and exit nonzero.
if ./bin/csbench -compare "$SMOKE_DIR/perf-base.json" \
  -against "$SMOKE_DIR/perf-breach.json" \
  -compare-out "$SMOKE_DIR/perf-diff-breach.json" >/dev/null; then
  echo "serve-smoke: csbench -compare passed a 9x regression" >&2
  exit 1
fi
jq -e '.regressed == true and .breaches == 1' "$SMOKE_DIR/perf-diff-breach.json"
jq -e '.deltas[0].ns_breach == true' "$SMOKE_DIR/perf-diff-breach.json"

echo "serve-smoke: OK"
