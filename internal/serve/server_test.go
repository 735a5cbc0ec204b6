package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	mux := http.NewServeMux()
	s.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestPlanEndpointComputesAndCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"life":"uniform","lifespan":500,"c":2}`

	resp, raw := post(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var cold PlanResponse
	if err := json.Unmarshal(raw, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("first request reported cached")
	}
	if !(cold.ExpectedWork > 0) || !(cold.T0 > 2) || cold.PeriodsTotal <= 0 {
		t.Errorf("implausible plan: %+v", cold)
	}
	if len(cold.Periods) == 0 || len(cold.Periods) > maxPeriodsReturned {
		t.Errorf("periods len = %d", len(cold.Periods))
	}
	if !(cold.Bracket[0] <= cold.T0 && cold.T0 <= cold.Bracket[1]) {
		t.Errorf("t0 %g outside bracket %v", cold.T0, cold.Bracket)
	}

	resp, raw = post(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var warm PlanResponse
	if err := json.Unmarshal(raw, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("second identical request missed the cache")
	}
	if math.Abs(warm.ExpectedWork-cold.ExpectedWork) > 0 || warm.Key != cold.Key {
		t.Errorf("cached response diverged: %+v vs %+v", warm, cold)
	}
}

// A spec that differs only in fields the life function ignores must
// hit the same cache entry.
func TestPlanCacheKeyCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if resp, raw := post(t, ts.URL+"/v1/plan", `{"life":"uniform","lifespan":400,"halflife":7}`); resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	_, raw := post(t, ts.URL+"/v1/plan", `{"life":"uniform","lifespan":400,"halflife":99,"d":5}`)
	var second PlanResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("canonically identical spec missed the cache")
	}
}

func TestPlanEndpointRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"life":"weibull"}`, 400},
		{`{"c":-1}`, 400},
		{`{"unknown_field":1}`, 400},
		{`not json`, 400},
		{`{"life":"powerlaw","d":2}`, 400},
	} {
		resp, raw := post(t, ts.URL+"/v1/plan", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status = %d (%s), want %d", tc.body, resp.StatusCode, raw, tc.want)
		}
		var e httpError
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("body %q: error payload missing: %s", tc.body, raw)
		}
	}
}

// A body is one JSON value: trailing data is a 400 and RequestKey
// refuses it, so the gate never routes by a key the replica would not
// answer under. Trailing whitespace is still one value.
func TestPlanRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"life":"poly","c":2} x`, 400},
		{`{"life":"poly","c":2}{"life":"uniform"}`, 400},
		{`{"life":"poly","c":2}}`, 400},
		{"{\"life\":\"poly\",\"c\":2} \n\t", 200},
	} {
		resp, raw := post(t, ts.URL+"/v1/plan", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status = %d (%s), want %d", tc.body, resp.StatusCode, raw, tc.want)
		}
		if _, err := RequestKey("plan", []byte(tc.body)); (err == nil) != (tc.want == 200) {
			t.Errorf("body %q: RequestKey error = %v, want one exactly when the replica answers 400", tc.body, err)
		}
	}
}

// The service's estimate must be bit-deterministic: the same spec and
// seed through HTTP equals a direct MonteCarlo run.
func TestEstimateEndpointMatchesDirectMonteCarlo(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, raw := post(t, ts.URL+"/v1/estimate",
		`{"life":"uniform","lifespan":300,"c":1,"policy":"fixed:15","episodes":20000,"seed":7}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var got EstimateResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	l, err := lifefn.NewUniform(300)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nowsim.MonteCarloCtx(context.Background(), &nowsim.FixedChunkPolicy{Chunk: 15}, nowsim.LifeOwner{Life: l}, 1, 20000, 7, nowsim.Obs{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Work.Mean-want.Work.Mean) > 0 {
		t.Errorf("work mean %g, want %g (must be bit-identical)", got.Work.Mean, want.Work.Mean)
	}
	if got.Episodes != want.Episodes {
		t.Errorf("episodes %d, want %d", got.Episodes, want.Episodes)
	}
	if !(got.Work.CI95Lo <= got.Work.Mean && got.Work.Mean <= got.Work.CI95Hi) {
		t.Errorf("confidence band does not contain the mean: %+v", got.Work)
	}
	if got.AnalyticE != nil {
		t.Error("fixed policy should not report an analytic E")
	}

	// guideline must report the analytic expected work.
	resp, raw = post(t, ts.URL+"/v1/estimate",
		`{"life":"uniform","lifespan":300,"c":1,"policy":"guideline","episodes":5000}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var guide EstimateResponse
	if err := json.Unmarshal(raw, &guide); err != nil {
		t.Fatal(err)
	}
	if guide.AnalyticE == nil || !(*guide.AnalyticE > 0) {
		t.Errorf("guideline estimate missing analytic E: %+v", guide)
	}
}

// Concurrent identical requests must coalesce onto one computation:
// at most one response may report a fresh (uncached, uncoalesced)
// compute.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 8})

	// Park the only worker so the leader's compute stays queued while
	// the other requests arrive and join the in-flight call.
	block := make(chan struct{})
	occupied := make(chan struct{})
	go func() {
		_ = s.pool.Do(context.Background(), func(context.Context) {
			close(occupied)
			<-block
		})
	}()
	<-occupied

	const n = 6
	responses := make([]PlanResponse, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
				strings.NewReader(`{"life":"poly","lifespan":600,"d":3,"c":1}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			_ = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the requests pile onto the flight
	close(block)
	wg.Wait()

	fresh := 0
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !(responses[i].ExpectedWork > 0) {
			t.Fatalf("request %d: bad response %+v", i, responses[i])
		}
		if math.Abs(responses[i].ExpectedWork-responses[0].ExpectedWork) > 0 {
			t.Errorf("request %d: diverging result", i)
		}
		if !responses[i].Cached && !responses[i].Coalesced {
			fresh++
		}
	}
	if fresh > 1 {
		t.Errorf("%d fresh computations for identical concurrent requests, want at most 1", fresh)
	}
	if s.reg.Counter("cs_serve_coalesced_total", "").Value() == 0 && fresh > 0 {
		t.Error("no coalescing recorded")
	}
}

// With the single worker parked and a zero queue, a request must be
// shed with 429 + Retry-After while the parked work still completes.
func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: -1}) // queue capacity 0
	block := make(chan struct{})
	occupied := make(chan struct{})
	inflight := make(chan error, 1)
	go func() {
		inflight <- s.pool.Do(context.Background(), func(context.Context) {
			close(occupied)
			<-block
		})
	}()
	<-occupied

	resp, raw := post(t, ts.URL+"/v1/plan", `{"life":"uniform","lifespan":777}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	close(block)
	if err := <-inflight; err != nil {
		t.Errorf("in-flight work dropped: %v", err)
	}
	// The pool must be usable again.
	resp, raw = post(t, ts.URL+"/v1/plan", `{"life":"uniform","lifespan":777}`)
	if resp.StatusCode != 200 {
		t.Fatalf("post-burst status = %d (%s), want 200", resp.StatusCode, raw)
	}
	if s.reg.Counter("cs_serve_rejected_total", "").Value() == 0 {
		t.Error("rejection not counted")
	}
}

// A request for a key whose only waiter has just given up must not
// inherit that computation's cancellation: it gets its own answer even
// while the abandoned compute is still winding down.
func TestRequestAfterAbandonedEstimateIsAnswered(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free)
	s.estimate.compute = func(ctx context.Context, spec EstimateSpec, key string) (EstimateResponse, error) {
		<-release // like MonteCarloCtx, notice cancellation only at a batch boundary
		if err := ctx.Err(); err != nil {
			return EstimateResponse{}, err
		}
		return s.computeEstimate(ctx, spec, key)
	}
	const body = `{"life":"uniform","lifespan":1000,"policy":"fixed:10","episodes":2000,"seed":9`
	resp, raw := post(t, ts.URL+"/v1/estimate", body+`,"timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}

	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body+`}`))
		if err != nil {
			t.Error(err)
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	// Release the compute only once the second request waits on a
	// flight: a new one, or the abandoned one if that were joinable.
	deadline := time.Now().Add(5 * time.Second)
	for !s.flights.hasWaiters() {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the flight group")
		}
		time.Sleep(time.Millisecond)
	}
	free()
	if got := <-code; got != http.StatusOK {
		t.Errorf("request after an abandoned estimate: status = %d, want 200", got)
	}
}

// Under a concurrent burst that mixes 200, 429 and 504 answers the
// backpressure signals stay exact: once every response is in, the
// queue-depth gauge and healthz queue_depth settle to 0, and the
// rejection counter equals the 429s the clients saw.
func TestQueueSignalsExactUnderBurst(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	s.plan.compute = func(_ context.Context, spec PlanSpec, key string) (PlanResponse, error) {
		<-gate
		return computePlan(context.Background(), spec, key)
	}
	depth := s.reg.Gauge("cs_serve_queue_depth", "")

	var mu sync.Mutex
	codes := map[int]int{}
	var wg sync.WaitGroup
	send := func(body string) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		mu.Lock()
		codes[resp.StatusCode]++
		mu.Unlock()
	}

	// One request takes the only slot and holds it at the gate; a burst
	// of 15 deadline-bound requests then finds one queue place.
	wg.Add(1)
	go send(`{"life":"uniform","lifespan":600}`)
	deadline := time.Now().Add(5 * time.Second)
	for depth.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	var burst sync.WaitGroup
	for i := 0; i < 15; i++ {
		wg.Add(1)
		burst.Add(1)
		go func(i int) {
			defer burst.Done()
			send(fmt.Sprintf(`{"life":"uniform","lifespan":%d,"timeout_ms":200}`, 601+i))
		}(i)
	}
	burst.Wait()
	open()
	// With the gate open, a second burst races admission against
	// completions; its split between 200 and 429 is not fixed.
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go send(fmt.Sprintf(`{"life":"uniform","lifespan":%d}`, 700+i))
	}
	wg.Wait()
	if codes[http.StatusOK] == 0 || codes[http.StatusGatewayTimeout] == 0 || codes[http.StatusTooManyRequests] == 0 {
		t.Errorf("codes = %v, want a mix of 200, 429 and 504", codes)
	}
	if n := codes[200] + codes[429] + codes[504]; n != 32 {
		t.Errorf("codes = %v, want only 200, 429 and 504 over 32 requests", codes)
	}

	deadline = time.Now().Add(5 * time.Second)
	for {
		var h Healthz
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.QueueDepth == 0 && depth.Value() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle server reports queue_depth %d, cs_serve_queue_depth %g", h.QueueDepth, depth.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.reg.Counter("cs_serve_rejected_total", "").Value(); got != uint64(codes[http.StatusTooManyRequests]) {
		t.Errorf("cs_serve_rejected_total = %d, clients saw %d 429s", got, codes[http.StatusTooManyRequests])
	}
}

// A request whose deadline expires mid-simulation gets 504 and leaves
// the pool usable.
func TestEstimateDeadlineCancelsAndPoolSurvives(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, raw := post(t, ts.URL+"/v1/estimate",
		`{"life":"uniform","lifespan":1000,"policy":"fixed:10","episodes":2000000,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}
	if s.reg.Counter("cs_serve_cancelled_total", "").Value() == 0 {
		t.Error("cancellation not counted")
	}
	resp, raw = post(t, ts.URL+"/v1/estimate",
		`{"life":"uniform","lifespan":1000,"policy":"fixed:10","episodes":2000,"seed":3}`)
	if resp.StatusCode != 200 {
		t.Fatalf("pool unusable after deadline: status = %d (%s)", resp.StatusCode, raw)
	}
}

// A compute that ignores its context still cannot hold a client past
// its deadline: the 504 comes from the flight wait, not from the
// compute returning, and the server answers normally once the compute
// is released.
func TestPlanDeadlineAnswersBeforeComputeReturns(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free)
	s.plan.compute = func(_ context.Context, spec PlanSpec, key string) (PlanResponse, error) {
		<-release
		return computePlan(context.Background(), spec, key)
	}

	start := time.Now()
	resp, raw := post(t, ts.URL+"/v1/plan", `{"life":"uniform","lifespan":555,"timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("504 took %v with a 50ms deadline", waited)
	}
	if got := s.reg.Counter("cs_serve_cancelled_total", "").Value(); got != 1 {
		t.Errorf("cs_serve_cancelled_total = %d, want 1", got)
	}

	free()
	resp, raw = post(t, ts.URL+"/v1/plan", `{"life":"uniform","lifespan":555}`)
	if resp.StatusCode != 200 {
		t.Fatalf("after release: status = %d (%s), want 200", resp.StatusCode, raw)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	mux := http.NewServeMux()
	s.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || h.Status != "ok" || h.QueueCapacity != 64 {
		t.Errorf("healthz = %d %+v", resp.StatusCode, h)
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
}

// The metric surface the CI smoke job asserts on must exist: request
// latency quantiles, cache hit counters, queue depth.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := `{"life":"uniform","lifespan":222}`
	post(t, ts.URL+"/v1/plan", body)
	post(t, ts.URL+"/v1/plan", body)

	var sb strings.Builder
	if err := s.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cs_http_request_ms{route="plan",quantile="0.99"}`,
		`cs_http_requests_total{route="plan",code="200"} 2`,
		`cs_serve_cache_hits_total{route="plan"} 1`,
		`cs_serve_cache_misses_total{route="plan"} 1`,
		"cs_serve_queue_depth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Sequential distinct requests fill the cache up to its LRU capacity.
func TestPlanCacheEvictionThroughHandlers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, PlanCacheEntries: 4, CacheShards: 1})
	for i := 0; i < 8; i++ {
		resp, raw := post(t, ts.URL+"/v1/plan", fmt.Sprintf(`{"life":"uniform","lifespan":%d}`, 100+i))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: %d (%s)", i, resp.StatusCode, raw)
		}
	}
	if got := s.plan.cache.Len(); got != 4 {
		t.Errorf("plan cache holds %d entries, want 4", got)
	}
	if s.reg.Counter(obs.Labeled("cs_serve_cache_evictions_total", "route", "plan"), "").Value() != 4 {
		t.Error("evictions not counted")
	}
}
