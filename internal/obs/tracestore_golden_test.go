package obs

import (
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateTracesGolden = flag.Bool("update", false, "rewrite testdata/traces.golden from the current /debug/traces bodies")

// goldenEpoch is the fixed wall-clock start of every golden trace; each
// trace starts a millisecond after the previous one.
var goldenEpoch = time.Unix(1_700_000_000, 0).UTC()

// goldenTrace returns a trace on route with deterministic IDs derived
// from id, started at the id-th millisecond after goldenEpoch. A
// nonzero parent stitches it under a remote span.
func goldenTrace(id byte, route string, parent byte) *ReqTrace {
	rt := &ReqTrace{route: route, start: goldenEpoch.Add(time.Duration(id) * time.Millisecond)}
	for i := range rt.tc.TraceID {
		rt.tc.TraceID[i] = id + byte(i)
	}
	for i := range rt.tc.SpanID {
		rt.tc.SpanID[i] = 0xa0 + id + byte(i)
	}
	rt.tc.Sampled = true
	if parent != 0 {
		rt.remote = true
		for i := range rt.parent {
			rt.parent[i] = parent + byte(i)
		}
	}
	return rt
}

// phase adds a phase at startMS..startMS+durMS of the trace.
func phase(rt *ReqTrace, name string, startMS, durMS float64, attrs ...string) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	rt.AddPhase(name, rt.start.Add(ms(startMS)), ms(durMS), attrs...)
}

// totalMS masks the wall-clock total, the one field of a golden trace
// that depends on when the test runs.
var totalMS = regexp.MustCompile(`("total_ms": )[^,\n}]+`)

// TestTracesGolden pins the /debug/traces JSON bytes: the records the
// serving path produces (the deepest one being a fresh cluster
// estimate), overflowing phase and attribute counts, a wrapped ring and
// each query parameter. Run with -update to rewrite
// testdata/traces.golden.
func TestTracesGolden(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 8, SampleRate: -1, SlowestK: 64, Window: time.Hour})

	// Two records the ring overwrites once it wraps.
	for id := byte(1); id <= 2; id++ {
		rt := goldenTrace(id, "plan", 0)
		phase(rt, PhaseCache, 0.01, 0.002, "outcome", "hit")
		tr.Offer(rt, 200)
	}

	// A fresh estimate on a cluster replica, stitched under the gate.
	rt := goldenTrace(3, "estimate", 0x40)
	phase(rt, PhaseCache, 0.02, 0.004, "outcome", "miss")
	phase(rt, PhasePeer, 0.05, 0.75, "outcome", "miss")
	phase(rt, PhaseQueue, 0.81, 0.125)
	phase(rt, "mc", 1.5, 12.25, "episodes", "20000")
	phase(rt, PhaseCompute, 0.94, 13)
	tr.Offer(rt, 200)

	// A follower that rode on another request's compute.
	rt = goldenTrace(4, "plan", 0)
	phase(rt, PhaseCache, 0.01, 0.003, "outcome", "miss")
	phase(rt, PhaseCoalesce, 0.02, 2.5)
	tr.Offer(rt, 200)

	// Shed load: kept as an error with its cache miss.
	rt = goldenTrace(5, "plan", 0)
	phase(rt, PhaseCache, 0.01, 0.003, "outcome", "miss")
	phase(rt, PhaseQueue, 0.02, 0.001)
	tr.Offer(rt, 429)

	// A failed compute with two root attributes.
	rt = goldenTrace(6, "estimate", 0)
	phase(rt, PhaseCompute, 0.1, 4, "error", "deadline")
	rt.Annotate("policy", "guideline")
	rt.Annotate("life", "geomdec(a=1.02)")
	tr.Offer(rt, 504)

	// A gate request that failed over across ten replicas.
	rt = goldenTrace(7, "estimate", 0)
	for i := 0; i < 10; i++ {
		outcome := "down"
		if i == 9 {
			outcome = "ok"
		}
		phase(rt, "proxy", float64(i), 0.5, "replica", "http://10.0.0."+string(rune('0'+i))+":8080", "outcome", outcome)
	}
	rt.Annotate("replica", "http://10.0.0.9:8080")
	tr.Offer(rt, 200)

	// More attributes than a slot holds inline, on a phase and the root.
	rt = goldenTrace(8, "plan", 0x70)
	phase(rt, PhaseCompute, 0.2, 3, "life", "uniform(L=1000)", "c", "1", "evaluations", "88")
	rt.Annotate("a", "1")
	rt.Annotate("b", "2")
	rt.Annotate("c", "3")
	tr.Offer(rt, 200)

	// No phases at all.
	tr.Offer(goldenTrace(9, "healthz", 0), 200)

	// A cache hit.
	rt = goldenTrace(10, "plan", 0)
	phase(rt, PhaseCache, 0.01, 0.002, "outcome", "hit")
	tr.Offer(rt, 200)

	var out strings.Builder
	for _, q := range []string{
		"",
		"?order=slowest&limit=3",
		"?phase=compute",
		"?phase=peer",
		"?route=plan",
		"?status=429",
		"?min_ms=1",
		"?limit=2",
		"?trace=030405060708090a0b0c0d0e0f101112",
	} {
		rec := httptest.NewRecorder()
		tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces"+q, nil))
		out.WriteString("== GET /debug/traces" + q + "\n")
		out.WriteString(totalMS.ReplaceAllString(rec.Body.String(), "${1}<masked>"))
	}

	const path = "testdata/traces.golden"
	if *updateTracesGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var gl, wl string
		if i < len(got) {
			gl = got[i]
		}
		if i < len(wantLines) {
			wl = wantLines[i]
		}
		if gl != wl {
			t.Fatalf("golden line %d differs:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
}
