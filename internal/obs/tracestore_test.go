package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func mkRec(id string, status int, totalMS float64) TraceRecord {
	return TraceRecord{
		TraceID:   id,
		SpanID:    "span" + id,
		Route:     "estimate",
		Status:    status,
		TotalMS:   totalMS,
		Breakdown: map[string]float64{"compute_ms": totalMS / 2, "total_ms": totalMS},
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Offer(mkRec("a", 200, 1)) {
		t.Errorf("nil Tracer kept a record")
	}
	if got := tr.Query(TraceQuery{}); got != nil {
		t.Errorf("nil Query = %v", got)
	}
	if st := tr.Stats(); st.Offered != 0 {
		t.Errorf("nil Stats = %+v", st)
	}
}

func TestTracerKeepsErrorsAlways(t *testing.T) {
	// Rate sampling off, slow budget tiny: errors must still all land.
	tr := NewTracer(TracerConfig{SampleRate: -1, SlowestK: 1})
	tr.Offer(mkRec("fast", 200, 1)) // takes the slow slot
	for i := 0; i < 10; i++ {
		if !tr.Offer(mkRec("e", 429, 0.1)) {
			t.Fatalf("429 record %d dropped", i)
		}
	}
	if !tr.Offer(mkRec("boom", 500, 0.1)) {
		t.Fatalf("500 record dropped")
	}
	st := tr.Stats()
	if st.ByReason[SampledError] != 11 {
		t.Errorf("errors kept = %d, want 11", st.ByReason[SampledError])
	}
}

func TestTracerSlowestKWindow(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: -1, SlowestK: 2, Window: time.Hour})
	if !tr.Offer(mkRec("a", 200, 10)) || !tr.Offer(mkRec("b", 200, 20)) {
		t.Fatalf("first K records must fill the slow budget")
	}
	if tr.Offer(mkRec("c", 200, 5)) {
		t.Fatalf("record faster than the window's K slowest was kept")
	}
	if !tr.Offer(mkRec("d", 200, 30)) {
		t.Fatalf("record slower than the window minimum was dropped")
	}
	// After d, the window's slowest two are {20, 30}; 15 < 20 drops.
	if tr.Offer(mkRec("e", 200, 15)) {
		t.Fatalf("15ms kept against window {20,30}")
	}
}

func TestTracerRateSampling(t *testing.T) {
	always := NewTracer(TracerConfig{SampleRate: 1, SlowestK: 1, Window: time.Hour})
	always.Offer(mkRec("s", 200, 100))
	kept := 0
	for i := 0; i < 50; i++ {
		if always.Offer(mkRec("r", 200, 1)) {
			kept++
		}
	}
	if kept != 50 {
		t.Errorf("SampleRate=1 kept %d/50", kept)
	}
	never := NewTracer(TracerConfig{SampleRate: -1, SlowestK: 1, Window: time.Hour})
	never.Offer(mkRec("s", 200, 100))
	for i := 0; i < 50; i++ {
		if never.Offer(mkRec("r", 200, 1)) {
			t.Fatalf("SampleRate<0 kept a record")
		}
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4, SampleRate: 1})
	for i := 0; i < 20; i++ {
		tr.Offer(mkRec("x", 500, float64(i)))
	}
	st := tr.Stats()
	if st.Stored != 4 || st.Capacity != 4 {
		t.Fatalf("stored/capacity = %d/%d, want 4/4", st.Stored, st.Capacity)
	}
	recs := tr.Query(TraceQuery{Limit: 100})
	if len(recs) != 4 {
		t.Fatalf("query returned %d, want 4", len(recs))
	}
	// Most recent first: totals 19, 18, 17, 16.
	if recs[0].TotalMS < recs[3].TotalMS {
		t.Errorf("not most-recent-first: %v ... %v", recs[0].TotalMS, recs[3].TotalMS)
	}
}

func TestTracerQueryFilters(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 1, SlowestK: 1, Window: time.Hour})
	tr.Offer(mkRec("a", 200, 50))
	tr.Offer(mkRec("b", 429, 1))
	slowWithQueue := mkRec("c", 200, 80)
	slowWithQueue.Breakdown["queue_ms"] = 10
	slowWithQueue.Route = "plan"
	tr.Offer(slowWithQueue)

	if got := tr.Query(TraceQuery{Status: 429}); len(got) != 1 || got[0].TraceID != "b" {
		t.Errorf("status filter: %+v", got)
	}
	if got := tr.Query(TraceQuery{MinMS: 60}); len(got) != 1 || got[0].TraceID != "c" {
		t.Errorf("min_ms filter: %+v", got)
	}
	if got := tr.Query(TraceQuery{Phase: "queue"}); len(got) != 1 || got[0].TraceID != "c" {
		t.Errorf("phase filter: %+v", got)
	}
	if got := tr.Query(TraceQuery{Route: "plan"}); len(got) != 1 || got[0].TraceID != "c" {
		t.Errorf("route filter: %+v", got)
	}
	slowest := tr.Query(TraceQuery{Slowest: true, Limit: 2})
	if len(slowest) != 2 || slowest[0].TraceID != "c" || slowest[1].TraceID != "a" {
		t.Errorf("slowest order: %+v", slowest)
	}
}

func TestTracerHTTPEndpoint(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 1})
	tr.Offer(mkRec("aaa", 200, 42))
	tr.Offer(mkRec("bbb", 429, 1))

	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?status=429", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Stats  TracerStats   `json:"stats"`
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.Stats.Kept != 2 || len(resp.Traces) != 1 || resp.Traces[0].TraceID != "bbb" {
		t.Fatalf("response = %+v", resp)
	}

	for _, bad := range []string{"?min_ms=x", "?status=x", "?limit=x"} {
		rec := httptest.NewRecorder()
		tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces"+bad, nil))
		if rec.Code != 400 {
			t.Errorf("%s: status = %d, want 400", bad, rec.Code)
		}
	}
	rec2 := httptest.NewRecorder()
	tr.ServeHTTP(rec2, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec2.Code != 405 {
		t.Errorf("POST status = %d, want 405", rec2.Code)
	}
}

func TestTracerWindowResetCarriesFloor(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: -1, SlowestK: 2, Window: time.Hour})
	if !tr.Offer(mkRec("a", 200, 100)) || !tr.Offer(mkRec("b", 200, 200)) {
		t.Fatalf("first window's warm-up records dropped")
	}
	// Force a window rollover: the full window's admission floor
	// (100ms) carries forward, so a fast record right after the reset
	// is no longer "slow" by default.
	tr.mu.Lock()
	tr.windowStart = time.Now().Add(-2 * time.Hour)
	tr.mu.Unlock()
	if tr.Offer(mkRec("fast", 200, 1)) {
		t.Fatalf("fast record kept as slow right after a window reset")
	}
	// A warm-up record beating the carried floor is still kept.
	if !tr.Offer(mkRec("slow", 200, 150)) {
		t.Fatalf("record above the carried floor dropped during warm-up")
	}
}
