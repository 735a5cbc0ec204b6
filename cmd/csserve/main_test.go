package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// Boot the full binary (ephemeral port), serve a plan twice, check the
// cache and metrics surfaces, then drain via the stop hook.
func TestServeEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- runApp([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-flight", "64"},
			&stdout, &stderr, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server never became ready; stderr: %s", stderr.String())
	}
	base := "http://" + addr

	body := `{"life":"uniform","lifespan":450}`
	var first, second struct {
		Cached       bool    `json:"cached"`
		ExpectedWork float64 `json:"expected_work"`
	}
	for i, out := range []*struct {
		Cached       bool    `json:"cached"`
		ExpectedWork float64 `json:"expected_work"`
	}{&first, &second} {
		resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if first.Cached || !second.Cached {
		t.Errorf("cached flags = %v/%v, want false/true", first.Cached, second.Cached)
	}
	if !(second.ExpectedWork > 0) {
		t.Errorf("expected_work = %g", second.ExpectedWork)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		`cs_serve_cache_hits_total{route="plan"} 1`,
		`cs_http_request_ms{route="plan",quantile="0.99"}`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}

	close(stop)
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("exit code = %d; stderr: %s", c, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after stop")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Errorf("stdout missing drain message: %s", stdout.String())
	}
}

// With -trace-sample 1 every request lands in the trace store. A
// request carrying a W3C traceparent must come back stitched under the
// caller's trace ID with the attribution invariant intact, and healthz
// must report build and runtime diagnostics.
func TestServeTracing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- runApp([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-trace-sample", "1"},
			&stdout, &stderr, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server never became ready; stderr: %s", stderr.String())
	}
	base := "http://" + addr
	defer func() {
		close(stop)
		select {
		case <-code:
		case <-time.After(10 * time.Second):
			t.Fatal("server did not drain after stop")
		}
	}()

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodPost, base+"/v1/estimate",
		strings.NewReader(`{"life":"uniform","lifespan":300,"policy":"fixed:10","episodes":50000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("estimate status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "0123456789abcdef0123456789abcdef" {
		t.Errorf("X-Trace-Id = %q, want the caller's trace ID", got)
	}
	if st := resp.Header.Get("Server-Timing"); !strings.Contains(st, "total;dur=") {
		t.Errorf("Server-Timing = %q, want a total entry", st)
	}

	resp, err = http.Get(base + "/debug/traces?trace=0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Traces []struct {
			TraceID   string             `json:"trace_id"`
			ParentID  string             `json:"parent_id"`
			Remote    bool               `json:"remote"`
			Status    int                `json:"status"`
			Breakdown map[string]float64 `json:"breakdown"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(body.Traces) != 1 {
		t.Fatalf("traces for the caller's ID = %d, want 1", len(body.Traces))
	}
	rec := body.Traces[0]
	if !rec.Remote || rec.ParentID != "00f067aa0ba902b7" {
		t.Errorf("stitch wrong: remote=%v parent=%q", rec.Remote, rec.ParentID)
	}
	b := rec.Breakdown
	if !(b["compute_ms"] > 0) {
		t.Errorf("compute_ms = %g, want > 0", b["compute_ms"])
	}
	if sum := b["queue_ms"] + b["coalesce_ms"] + b["compute_ms"]; sum > b["total_ms"] {
		t.Errorf("attribution invariant violated: %g > total %g", sum, b["total_ms"])
	}

	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
		NumCPU    int    `json:"num_cpu"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Version != "dev" || !strings.HasPrefix(hz.GoVersion, "go") || hz.NumCPU < 1 {
		t.Errorf("healthz diagnostics = %+v", hz)
	}
}

func TestServeUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &out); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"positional"}, &out, &out); code != 2 {
		t.Errorf("positional arg exit = %d, want 2", code)
	}
}

func TestServeBadAddr(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:99999"}, &out, &out); code != 1 {
		t.Errorf("bad addr exit = %d, want 1", code)
	}
}

// The runtime-observability surfaces: /debug/slo burn rates fed by the
// instrumented routes and the healthz runtime block (GC cycles, last pause, leak verdict).
func TestServeRuntimeObservability(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	code := make(chan int, 1)
	go func() {
		code <- runApp([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-runtime-sample", "50ms"},
			&stdout, &stderr, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server never became ready; stderr: %s", stderr.String())
	}
	base := "http://" + addr
	defer func() {
		close(stop)
		select {
		case <-code:
		case <-time.After(10 * time.Second):
			t.Fatal("server did not drain after stop")
		}
	}()

	// One good and one bad request feed the SLO windows.
	resp, err := http.Post(base+"/v1/plan", "application/json",
		strings.NewReader(`{"life":"uniform","lifespan":450}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/plan", "application/json", strings.NewReader(`not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(base + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var slo struct {
		AvailabilityObjective float64 `json:"availability_objective"`
		Windows               []struct {
			Window        string  `json:"window"`
			Requests      uint64  `json:"requests"`
			ErrorBurnRate float64 `json:"error_burn_rate"`
		} `json:"windows"`
		Total struct {
			Requests uint64 `json:"requests"`
		} `json:"total"`
		Alerts []struct {
			SLI string `json:"sli"`
		} `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	//lint:allow floatcmp the default objective round-trips JSON exactly
	if slo.AvailabilityObjective != 0.999 || len(slo.Windows) != 3 || len(slo.Alerts) != 4 {
		t.Errorf("slo shape wrong: %+v", slo)
	}
	// Both plan requests were served (400 is not an SLO error); healthz
	// probes must not appear.
	if slo.Total.Requests != 2 {
		t.Errorf("slo total requests = %d, want 2 (healthz excluded)", slo.Total.Requests)
	}

	// A heap profile with gc=1 forces a collection.
	if resp, err = http.Get(base + "/debug/pprof/heap?gc=1"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The profile ran a GC, so healthz must now report cycles and
	// a pause history, and the bridge's watchdog verdict.
	resp, err = http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Runtime struct {
			GCCycles       uint32  `json:"gc_cycles"`
			GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
			HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
			NumGoroutine   int     `json:"num_goroutine"`
			LeakSuspected  bool    `json:"goroutine_leak_suspected"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Runtime.GCCycles < 1 || hz.Runtime.GCPauseTotalMS <= 0 {
		t.Errorf("healthz runtime GC block = %+v", hz.Runtime)
	}
	if hz.Runtime.HeapAllocBytes == 0 || hz.Runtime.NumGoroutine < 1 {
		t.Errorf("healthz runtime heap block = %+v", hz.Runtime)
	}
	if hz.Runtime.LeakSuspected {
		t.Errorf("leak suspected on a healthy server")
	}

	// The bridge publishes cs_runtime_ series into the shared registry.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		"cs_runtime_goroutines ",
		"cs_runtime_gc_cycles_total ",
		`cs_runtime_gc_pause_ms{quantile="0.99"}`,
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
