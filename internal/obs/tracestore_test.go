package obs

import (
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// mkTrace returns an estimate trace whose trace ID spells id and which
// started totalMS ago, so that offering it now records about that
// total.
func mkTrace(id string, totalMS float64) *ReqTrace {
	rt := &ReqTrace{route: "estimate", start: time.Now().Add(-time.Duration(totalMS * float64(time.Millisecond)))}
	copy(rt.tc.TraceID[:], id)
	rt.tc.SpanID[0] = 1
	return rt
}

// traceIDOf is the hex trace ID of mkTrace(id, ...).
func traceIDOf(id string) string {
	var b [16]byte
	copy(b[:], id)
	return hex.EncodeToString(b[:])
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Offer(mkTrace("a", 1), 200) {
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
	tr.Offer(mkTrace("fast", 1), 200) // takes the slow slot
	for i := 0; i < 10; i++ {
		if !tr.Offer(mkTrace("e", 0.1), 429) {
			t.Fatalf("429 record %d dropped", i)
		}
	}
	if !tr.Offer(mkTrace("boom", 0.1), 500) {
		t.Fatalf("500 record dropped")
	}
	st := tr.Stats()
	if st.ByReason[SampledError] != 11 {
		t.Errorf("errors kept = %d, want 11", st.ByReason[SampledError])
	}
}

func TestTracerSlowestKWindow(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: -1, SlowestK: 2, Window: time.Hour})
	if !tr.Offer(mkTrace("a", 10), 200) || !tr.Offer(mkTrace("b", 20), 200) {
		t.Fatalf("first K records must fill the slow budget")
	}
	if tr.Offer(mkTrace("c", 5), 200) {
		t.Fatalf("record faster than the window's K slowest was kept")
	}
	if !tr.Offer(mkTrace("d", 30), 200) {
		t.Fatalf("record slower than the window minimum was dropped")
	}
	// After d, the window's slowest two are {20, 30}; 15 < 20 drops.
	if tr.Offer(mkTrace("e", 15), 200) {
		t.Fatalf("15ms kept against window {20,30}")
	}
}

func TestTracerRateSampling(t *testing.T) {
	always := NewTracer(TracerConfig{SampleRate: 1, SlowestK: 1, Window: time.Hour})
	always.Offer(mkTrace("s", 100), 200)
	kept := 0
	for i := 0; i < 50; i++ {
		if always.Offer(mkTrace("r", 1), 200) {
			kept++
		}
	}
	if kept != 50 {
		t.Errorf("SampleRate=1 kept %d/50", kept)
	}
	never := NewTracer(TracerConfig{SampleRate: -1, SlowestK: 1, Window: time.Hour})
	never.Offer(mkTrace("s", 100), 200)
	for i := 0; i < 50; i++ {
		if never.Offer(mkTrace("r", 1), 200) {
			t.Fatalf("SampleRate<0 kept a record")
		}
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4, SampleRate: 1})
	for i := 0; i < 20; i++ {
		tr.Offer(mkTrace("x", float64(i)), 500)
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
	tr.Offer(mkTrace("a", 50), 200)
	tr.Offer(mkTrace("b", 1), 429)
	slowWithQueue := mkTrace("c", 80)
	slowWithQueue.AddPhase(PhaseQueue, slowWithQueue.start, 10*time.Millisecond)
	slowWithQueue.route = "plan"
	tr.Offer(slowWithQueue, 200)

	if got := tr.Query(TraceQuery{Status: 429}); len(got) != 1 || got[0].TraceID != traceIDOf("b") {
		t.Errorf("status filter: %+v", got)
	}
	if got := tr.Query(TraceQuery{MinMS: 60}); len(got) != 1 || got[0].TraceID != traceIDOf("c") {
		t.Errorf("min_ms filter: %+v", got)
	}
	if got := tr.Query(TraceQuery{Phase: "queue"}); len(got) != 1 || got[0].TraceID != traceIDOf("c") {
		t.Errorf("phase filter: %+v", got)
	}
	if got := tr.Query(TraceQuery{Route: "plan"}); len(got) != 1 || got[0].TraceID != traceIDOf("c") {
		t.Errorf("route filter: %+v", got)
	}
	slowest := tr.Query(TraceQuery{Slowest: true, Limit: 2})
	if len(slowest) != 2 || slowest[0].TraceID != traceIDOf("c") || slowest[1].TraceID != traceIDOf("a") {
		t.Errorf("slowest order: %+v", slowest)
	}
}

func TestTracerHTTPEndpoint(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 1})
	tr.Offer(mkTrace("aaa", 42), 200)
	tr.Offer(mkTrace("bbb", 1), 429)

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
	if resp.Stats.Kept != 2 || len(resp.Traces) != 1 || resp.Traces[0].TraceID != traceIDOf("bbb") {
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
	if !tr.Offer(mkTrace("a", 100), 200) || !tr.Offer(mkTrace("b", 200), 200) {
		t.Fatalf("first window's warm-up records dropped")
	}
	// Force a window rollover: the full window's admission floor
	// (100ms) carries forward, so a fast record right after the reset
	// is no longer "slow" by default.
	tr.mu.Lock()
	tr.windowStart = time.Now().Add(-2 * time.Hour)
	tr.mu.Unlock()
	if tr.Offer(mkTrace("fast", 1), 200) {
		t.Fatalf("fast record kept as slow right after a window reset")
	}
	// A warm-up record beating the carried floor is still kept.
	if !tr.Offer(mkTrace("slow", 150), 200) {
		t.Fatalf("record above the carried floor dropped during warm-up")
	}
}

// deepestTrace has the phases of csserve's deepest trace, a fresh
// estimate on a cluster replica: cache and peer misses, the admission
// queue, the Monte-Carlo run and the compute around it.
func deepestTrace() *ReqTrace {
	rt := mkTrace("deep", 20)
	rt.AddPhase(PhaseCache, rt.start, time.Microsecond, "outcome", "miss")
	rt.AddPhase(PhasePeer, rt.start, time.Millisecond, "outcome", "miss")
	rt.AddPhase(PhaseQueue, rt.start, time.Microsecond)
	rt.AddPhase("mc", rt.start, 12*time.Millisecond, "episodes", "20000", "cancelled", "true")
	rt.AddPhase(PhaseCompute, rt.start, 13*time.Millisecond)
	return rt
}

// Once the ring has wrapped, a kept trace is copied into an existing
// slot, and a dropped one builds nothing: neither allocates. Before
// that, a keep allocates its slot and nothing else.
func TestTracerOfferAllocs(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4, SampleRate: -1, SlowestK: 1, Window: time.Hour})
	deep := deepestTrace()
	for i := 0; i < 4; i++ {
		if got := testing.AllocsPerRun(1, func() { tr.Offer(deep, 500) }); got > 1 {
			t.Errorf("first-pass keep %d allocates %.0f, want at most its slot", i, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { tr.Offer(deep, 500) }); got != 0 {
		t.Errorf("kept Offer allocates %.0f/run, want 0", got)
	}
	recs := tr.Query(TraceQuery{Limit: 1})
	if len(recs) != 1 || len(recs[0].Phases) != 5 || recs[0].Phases[3].Attrs["episodes"] != "20000" {
		t.Fatalf("kept record = %+v", recs)
	}

	// Slow keeps past warm-up evict the window's minimum in place.
	slowTr := NewTracer(TracerConfig{Capacity: 4, SampleRate: -1, SlowestK: 3, Window: time.Hour})
	slow := make([]*ReqTrace, 105)
	for i := range slow {
		slow[i] = mkTrace("s", 2000+float64(i))
	}
	next := 0
	for ; next < 4; next++ { // the first pass allocates the slots
		slowTr.Offer(slow[next], 200)
	}
	if got := testing.AllocsPerRun(100, func() {
		if !slowTr.Offer(slow[next], 200) {
			t.Fatal("ever slower 200 dropped")
		}
		next++
	}); got != 0 {
		t.Errorf("slow keep allocates %.0f/run, want 0", got)
	}

	if !tr.Offer(mkTrace("slow", 1000), 200) {
		t.Fatal("first 200 did not fill the slow budget")
	}
	before := tr.Stats()
	fast := mkTrace("fast", 1)
	if got := testing.AllocsPerRun(100, func() {
		if tr.Offer(fast, 200) {
			t.Fatal("fast 200 kept with rate sampling off")
		}
	}); got != 0 {
		t.Errorf("dropped Offer allocates %.0f/run, want 0", got)
	}
	if after := tr.Stats(); after.Kept != before.Kept || after.Stored != before.Stored {
		t.Errorf("dropped offers changed the store: %+v -> %+v", before, after)
	}
}

// Offers and reads of the ring from many goroutines at once (run under
// -race): every read sees whole records.
func TestTracerConcurrentOfferAndQuery(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 16, SampleRate: 1})
	const writers, per = 4, 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Offer(deepestTrace(), 200+300*(i%2))
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		for _, rec := range tr.Query(TraceQuery{Limit: 16, Slowest: true}) {
			if rec.TraceID != traceIDOf("deep") || len(rec.Phases) != 5 || rec.Cache != "miss" {
				t.Fatalf("torn record: %+v", rec)
			}
		}
		rec := httptest.NewRecorder()
		tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?phase=mc", nil))
		if rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
		select {
		case <-done:
			if st := tr.Stats(); st.Offered != writers*per || st.Stored != 16 {
				t.Fatalf("stats = %+v", st)
			}
			return
		default:
		}
	}
}
