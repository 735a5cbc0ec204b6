package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func invariantOK(rec obs.TraceRecord) bool {
	sum := rec.Breakdown["queue_ms"] + rec.Breakdown["coalesce_ms"] + rec.Breakdown["compute_ms"]
	return sum <= rec.TotalMS
}

// A cold request through the full stack must yield a trace stitched
// under the caller's traceparent, with queue/compute attribution and
// the cache outcome; a warm repeat must show the hit.
func TestTraceAttributionEndToEnd(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	_, ts := newTestServer(t, Config{Workers: 2, Tracer: tr})
	parent := obs.NewTraceContext()
	body := `{"life":"uniform","lifespan":350,"policy":"fixed:12","episodes":5000,"seed":9}`

	doPost := func() *http.Response {
		req, err := http.NewRequest("POST", ts.URL+"/v1/estimate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return resp
	}

	resp := doPost()
	if got := resp.Header.Get(obs.TraceIDHeader); got != parent.TraceIDString() {
		t.Fatalf("%s = %q, want %q", obs.TraceIDHeader, got, parent.TraceIDString())
	}
	st := resp.Header.Get("Server-Timing")
	for _, want := range []string{"cache;dur=", "queue;dur=", "compute;dur=", "total;dur="} {
		if !strings.Contains(st, want) {
			t.Errorf("Server-Timing missing %s: %q", want, st)
		}
	}
	doPost() // warm: cache hit under the same trace id

	recs := tr.Query(obs.TraceQuery{TraceID: parent.TraceIDString(), Limit: 10})
	if len(recs) != 2 {
		t.Fatalf("stored traces = %d, want 2", len(recs))
	}
	warm, cold := recs[0], recs[1] // most recent first
	if !cold.Remote || cold.ParentID != parent.SpanIDString() {
		t.Errorf("cold trace not stitched under remote parent: %+v", cold)
	}
	if cold.Cache != "miss" || !(cold.Breakdown["compute_ms"] > 0) {
		t.Errorf("cold trace missing compute attribution: %+v", cold.Breakdown)
	}
	if _, ok := cold.Breakdown["queue_ms"]; !ok {
		t.Errorf("cold trace missing queue attribution: %+v", cold.Breakdown)
	}
	if warm.Cache != "hit" || warm.Breakdown["compute_ms"] > 0 {
		t.Errorf("warm trace should be a pure cache hit: %+v", warm.Breakdown)
	}
	for _, rec := range recs {
		if !invariantOK(rec) {
			t.Errorf("attribution invariant violated: %+v", rec.Breakdown)
		}
	}
}

// Satellite requirement: coalesce-wait attribution when the
// singleflight leader's context is cancelled mid-flight (run under
// -race in CI). The follower must carry the coalesce wait in its own
// trace; the leader's trace, finalized at its 504, must not absorb
// the compute that finishes after it — the invariant holds for both.
func TestCoalesceAttributionWithCancelledLeader(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 8, Tracer: tr})

	// Park the only worker so the leader's compute stays queued.
	block := make(chan struct{})
	occupied := make(chan struct{})
	go func() {
		_ = s.pool.Do(context.Background(), func(context.Context) {
			close(occupied)
			<-block
		})
	}()
	<-occupied

	body := `{"life":"uniform","lifespan":444,"policy":"fixed:10","episodes":2000,"seed":4}`
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	var wg sync.WaitGroup
	var followerCode int
	var follower EstimateResponse

	wg.Add(1)
	go func() { // leader: first in, creates the flight, then is cancelled
		defer wg.Done()
		req, err := http.NewRequestWithContext(leaderCtx, "POST", ts.URL+"/v1/estimate", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond) // leader holds the flight

	wg.Add(1)
	go func() { // follower joins the in-flight call
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		followerCode = resp.StatusCode
		_ = json.NewDecoder(resp.Body).Decode(&follower)
	}()
	time.Sleep(100 * time.Millisecond) // follower is waiting on the flight

	cancelLeader() // leader abandons; follower keeps the flight alive
	time.Sleep(100 * time.Millisecond)
	close(block) // worker free: compute runs, follower completes
	wg.Wait()

	if followerCode != 200 || !follower.Coalesced {
		t.Fatalf("follower: code=%d coalesced=%v", followerCode, follower.Coalesced)
	}

	var followerRec, leaderRec *obs.TraceRecord
	for _, rec := range tr.Query(obs.TraceQuery{Route: "estimate", Limit: 10}) {
		rec := rec
		switch {
		case rec.Status == 200:
			followerRec = &rec
		case rec.Status >= 400:
			leaderRec = &rec
		}
	}
	if followerRec == nil {
		t.Fatal("follower trace not stored")
	}
	if !(followerRec.Breakdown["coalesce_ms"] > 0) {
		t.Errorf("follower trace missing coalesce wait: %+v", followerRec.Breakdown)
	}
	if followerRec.Breakdown["compute_ms"] > 0 {
		t.Errorf("follower trace absorbed the leader's compute: %+v", followerRec.Breakdown)
	}
	if !invariantOK(*followerRec) {
		t.Errorf("follower invariant violated: %+v", followerRec.Breakdown)
	}
	if leaderRec == nil {
		t.Fatal("cancelled leader trace not stored (errors must always be kept)")
	}
	// The compute finished after the leader's trace was finalized; the
	// late phase must have been dropped, keeping the invariant.
	if leaderRec.Breakdown["compute_ms"] > 0 {
		t.Errorf("leader trace absorbed post-finalize compute: %+v", leaderRec.Breakdown)
	}
	if !invariantOK(*leaderRec) {
		t.Errorf("leader invariant violated: %+v", leaderRec.Breakdown)
	}
}

// Satellite requirement: healthz carries version, uptime, Go runtime
// and per-shard cache occupancy.
func TestHealthzDiagnostics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Version: "v-test", PlanCacheEntries: 8, CacheShards: 4})
	post(t, ts.URL+"/v1/plan", `{"life":"uniform","lifespan":123}`)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != "v-test" {
		t.Errorf("version = %q", h.Version)
	}
	if !strings.HasPrefix(h.GoVersion, "go") || h.NumCPU <= 0 || h.NumGoroutine <= 0 {
		t.Errorf("runtime fields: %+v", h)
	}
	if !(h.UptimeSeconds > 0) {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
	if len(h.PlanCache.PerShard) != 4 || h.PlanCache.ShardCap != 2 {
		t.Errorf("plan cache shards: %+v", h.PlanCache)
	}
	if h.PlanCache.Entries != 1 || h.PlanCache.MaxShard != 1 {
		t.Errorf("plan cache occupancy after one plan: %+v", h.PlanCache)
	}
	if h.PlanCache.Entries != s.plan.cache.Len() {
		t.Errorf("healthz entries %d != cache len %d", h.PlanCache.Entries, s.plan.cache.Len())
	}
}
