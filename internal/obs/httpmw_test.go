package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestInstrumentHandlerRecordsStatusAndLatency(t *testing.T) {
	reg := NewRegistry()
	h := InstrumentHandler(reg, "plan", nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fail") != "" {
			http.Error(w, "nope", http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte("ok")) // implicit 200
	}))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/plan", nil))
		if rec.Code != 200 {
			t.Fatalf("status = %d, want 200", rec.Code)
		}
		if rec.Header().Get(TraceIDHeader) == "" {
			t.Fatalf("response missing %s header", TraceIDHeader)
		}
		if !strings.Contains(rec.Header().Get("Server-Timing"), "total;dur=") {
			t.Fatalf("Server-Timing = %q, want total;dur=", rec.Header().Get("Server-Timing"))
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/plan?fail=1", nil))
	if rec.Code != 429 {
		t.Fatalf("status = %d, want 429", rec.Code)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cs_http_requests_total{route="plan",code="200"} 3`,
		`cs_http_requests_total{route="plan",code="429"} 1`,
		`cs_http_request_ms{route="plan",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := reg.Quantiles(Labeled("cs_http_request_ms", "route", "plan"), "").Count(); got != 4 {
		t.Errorf("latency observations = %d, want 4", got)
	}
}

func TestInstrumentHandlerNilRegistryPassesThrough(t *testing.T) {
	called := false
	h := InstrumentHandler(nil, "x", nil, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = true
		w.WriteHeader(http.StatusNoContent)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !called || rec.Code != http.StatusNoContent {
		t.Fatalf("pass-through failed: called=%v code=%d", called, rec.Code)
	}
}

// InstrumentHandler under concurrent mixed-status load must keep exact
// per-code counters, latency counts and SLO totals (run under -race in
// CI).
func TestInstrumentHandlerConcurrentMixedStatus(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Capacity: 4096, SampleRate: -1})
	slo := NewSLOTracker(SLOConfig{})
	codes := []int{200, 404, 429, 500}
	h := InstrumentHandler(reg, "mix", tr, slo, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var code int
		if _, err := fmt.Sscanf(r.URL.Query().Get("code"), "%d", &code); err != nil {
			t.Errorf("bad code param: %v", err)
			code = 500
		}
		end := StartPhase(r.Context(), PhaseCompute)
		end()
		if code == 200 {
			_, _ = w.Write([]byte("ok"))
			return
		}
		http.Error(w, "no", code)
	}))

	const perCode = 25
	var wg sync.WaitGroup
	for _, code := range codes {
		for i := 0; i < perCode; i++ {
			wg.Add(1)
			go func(code int) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/mix?code=%d", code), nil))
				if rec.Code != code {
					t.Errorf("status = %d, want %d", rec.Code, code)
				}
			}(code)
		}
	}
	wg.Wait()

	for _, code := range codes {
		name := Labeled("cs_http_requests_total", "route", "mix", "code", fmt.Sprintf("%d", code))
		if got := reg.Counter(name, "").Value(); got != perCode {
			t.Errorf("%s = %d, want %d", name, got, perCode)
		}
	}
	lat := reg.Quantiles(Labeled("cs_http_request_ms", "route", "mix"), "")
	if got := lat.Count(); got != uint64(len(codes)*perCode) {
		t.Errorf("histogram count = %d, want %d", got, len(codes)*perCode)
	}
	// Only the 500s spend error budget; 404 and 429 count as served.
	if got := slo.Snapshot().Total; got.Requests != uint64(len(codes)*perCode) || got.Errors != perCode {
		t.Errorf("SLO total = %d requests, %d errors; want %d, %d",
			got.Requests, got.Errors, len(codes)*perCode, perCode)
	}
	// With the rate coin disabled, the tail sampler must have kept
	// exactly the error-status requests.
	st := tr.Stats()
	if st.Offered != uint64(len(codes)*perCode) {
		t.Errorf("offered = %d, want %d", st.Offered, len(codes)*perCode)
	}
	if st.ByReason[SampledError] != 3*perCode {
		t.Errorf("kept by error = %d, want %d", st.ByReason[SampledError], 3*perCode)
	}
	for _, rec := range tr.Query(TraceQuery{Status: 429, Limit: 1000}) {
		if rec.SampledBy != SampledError {
			t.Errorf("429 trace sampled by %q, want error", rec.SampledBy)
		}
		sum := rec.Breakdown["queue_ms"] + rec.Breakdown["coalesce_ms"] + rec.Breakdown["compute_ms"]
		if sum > rec.TotalMS {
			t.Errorf("invariant violated: %v > %v", sum, rec.TotalMS)
		}
	}
}

// An incoming W3C traceparent must continue the remote trace rather
// than rooting a new one, and the trace ID must round-trip through the
// response header and the store.
func TestInstrumentHandlerStitchesRemoteParent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{SampleRate: 1})
	h := InstrumentHandler(reg, "plan", tr, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	parent := NewTraceContext()
	req := httptest.NewRequest("GET", "/v1/plan", nil)
	req.Header.Set(TraceparentHeader, parent.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(TraceIDHeader); got != parent.TraceIDString() {
		t.Fatalf("%s = %q, want remote trace id %q", TraceIDHeader, got, parent.TraceIDString())
	}
	recs := tr.Query(TraceQuery{TraceID: parent.TraceIDString()})
	if len(recs) != 1 {
		t.Fatalf("stored traces = %d, want 1", len(recs))
	}
	if !recs[0].Remote || recs[0].ParentID != parent.SpanIDString() {
		t.Fatalf("stored record not stitched: %+v", recs[0])
	}
	// A malformed traceparent roots a fresh trace instead.
	req2 := httptest.NewRequest("GET", "/v1/plan", nil)
	req2.Header.Set(TraceparentHeader, "00-bogus")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	if got := rec2.Header().Get(TraceIDHeader); got == "" || got == parent.TraceIDString() {
		t.Fatalf("malformed parent handled wrong: trace id %q", got)
	}
	// So does a request without the header.
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, httptest.NewRequest("GET", "/v1/plan", nil))
	id := rec3.Header().Get(TraceIDHeader)
	if recs := tr.Query(TraceQuery{TraceID: id}); len(recs) != 1 || recs[0].Remote || recs[0].ParentID != "" {
		t.Fatalf("untraced request's record = %+v, want a fresh local root", recs)
	}
}

// nopWriter is a ResponseWriter that allocates nothing itself, so
// AllocsPerRun counts only what the middleware allocates.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestInstrumentHandlerAllocs pins the middleware's per-request
// allocations with csserve's tracer and SLO tracker attached: 15 on
// go1.24 linux/amd64. The tracer adds none: a kept trace is copied into
// a preallocated slot and a dropped one builds no record. A request
// without a traceparent header builds no parse error.
func TestInstrumentHandlerAllocs(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Capacity: 2048, SampleRate: 0.1, SlowestK: 8})
	slo := NewSLOTracker(SLOConfig{})
	body := []byte("ok")
	h := InstrumentHandler(reg, "plan", tr, slo, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	w := &nopWriter{h: make(http.Header)}
	req := httptest.NewRequest("GET", "/v1/plan", nil)
	h.ServeHTTP(w, req) // registers the per-code counter
	if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got != 15 {
		t.Errorf("instrumented request allocates %.0f/run, want 15", got)
	}
}
