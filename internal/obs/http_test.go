package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetricsPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cs_http_test_total", "served requests").Add(3)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "cs_http_test_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestCLIFlagsSetup(t *testing.T) {
	dir := t.TempDir()
	f := Flags{Trace: dir + "/run.jsonl", TraceFormat: "jsonl"}
	s, err := f.Setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sink == nil {
		t.Fatal("no sink opened")
	}
	s.Sink.Emit(Event{Time: 1, Kind: "dispatch", Length: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A bad format errors before the trace file is opened: an existing
	// file keeps its bytes.
	kept := dir + "/kept.jsonl"
	if err := os.WriteFile(kept, []byte("earlier run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f = Flags{Trace: kept, TraceFormat: "nope"}
	if _, err := f.Setup(nil); err == nil {
		t.Error("bad trace format did not error")
	}
	if b, err := os.ReadFile(kept); err != nil || string(b) != "earlier run\n" {
		t.Errorf("bad trace format touched the existing trace file: %q, %v", b, err)
	}
	f = Flags{TraceFormat: "nope"}
	if _, err := f.Setup(nil); err == nil {
		t.Error("bad trace format without a trace file did not error")
	}

	var zero Flags
	s, err = zero.Setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Sink != nil || s.Server != nil {
		t.Error("zero flags opened resources")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}

// TestMetricsHandlerServesClassicText sends the Accept header a
// Prometheus server puts on every scrape, which lists OpenMetrics
// first. /metrics answers in the classic 0.0.4 text format regardless:
// no # EOF terminator and no exemplar syntax.
func TestMetricsHandlerServesClassicText(t *testing.T) {
	accept, err := os.ReadFile("testdata/scrape-accept.txt")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Counter("cs_req_total", "requests").Inc()
	reg.Quantiles(Labeled("cs_http_request_ms", "route", "plan"), "latency").Observe(7.5)
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", strings.TrimSpace(string(accept)))
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "cs_req_total 1\n") {
		t.Errorf("exposition missing counter:\n%s", body)
	}
	if strings.Contains(body, "# EOF") || strings.Contains(body, " # {") {
		t.Errorf("classic exposition carries OpenMetrics syntax:\n%s", body)
	}
}
