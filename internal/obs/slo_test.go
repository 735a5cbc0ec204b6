package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// sloAt builds a tracker on a fake clock starting at a fixed instant.
func sloAt(cfg SLOConfig) (*SLOTracker, *time.Time) {
	clock := time.Unix(1_000_000, 0)
	tr := NewSLOTracker(cfg)
	tr.now = func() time.Time { return clock }
	// start was stamped with the real clock in NewSLOTracker; re-anchor.
	tr.start = clock
	return tr, &clock
}

func TestSLONilSafe(t *testing.T) {
	var tr *SLOTracker
	tr.Record(200, 1)
	snap := tr.Snapshot()
	if snap.Windows != nil || snap.Total.Requests != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}

func TestSLOBurnRateMath(t *testing.T) {
	tr, _ := sloAt(SLOConfig{
		AvailabilityObjective: 0.99, // error budget 1%
		LatencyObjective:      0.9,  // slow budget 10%
		LatencyThresholdMS:    100,
	})
	for i := 0; i < 90; i++ {
		tr.Record(200, 10) // fast success
	}
	for i := 0; i < 10; i++ {
		tr.Record(500, 10) // error
	}
	snap := tr.Snapshot()
	if len(snap.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(snap.Windows))
	}
	w := snap.Windows[0]
	if w.Requests != 100 || w.Errors != 10 {
		t.Fatalf("window counts = %+v", w)
	}
	if math.Abs(w.ErrorRate-0.1) > 1e-9 {
		t.Errorf("error_rate = %v, want 0.1", w.ErrorRate)
	}
	// burn = error_rate / (1 - objective) = 0.1 / 0.01 = 10.
	if math.Abs(w.ErrorBurnRate-10) > 1e-6 {
		t.Errorf("error_burn_rate = %v, want 10", w.ErrorBurnRate)
	}
	if snap.Total.Requests != 100 || snap.Total.Window != "since_start" {
		t.Errorf("total window = %+v", snap.Total)
	}
}

func TestSLOLatencySLI(t *testing.T) {
	tr, _ := sloAt(SLOConfig{
		AvailabilityObjective: 0.999,
		LatencyObjective:      0.9,
		LatencyThresholdMS:    100,
	})
	tr.Record(200, 50)   // fast
	tr.Record(200, 500)  // slow
	tr.Record(429, 500)  // shed load: served (not an error), slow
	tr.Record(500, 5000) // error: excluded from the latency SLI
	tr.Record(0, 1)      // no response at all: error

	snap := tr.Snapshot()
	w := snap.Windows[0]
	if w.Requests != 5 || w.Errors != 2 || w.Slow != 2 {
		t.Fatalf("counts = req %d err %d slow %d, want 5/2/2", w.Requests, w.Errors, w.Slow)
	}
	// slow_rate is over served (non-error) responses: 2 of 3.
	if math.Abs(w.SlowRate-2.0/3.0) > 1e-9 {
		t.Errorf("slow_rate = %v, want 2/3", w.SlowRate)
	}
	// latency burn = slow_rate / (1 - 0.9).
	if math.Abs(w.LatencyBurnRate-20.0/3.0) > 1e-6 {
		t.Errorf("latency_burn_rate = %v, want 20/3", w.LatencyBurnRate)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	tr, clock := sloAt(SLOConfig{})
	tr.Record(500, 1)
	*clock = clock.Add(10 * time.Minute)
	tr.Record(200, 1)
	snap := tr.Snapshot()
	// The error has aged out of the 5m window but not the 1h or 6h.
	if w := snap.Windows[0]; w.Requests != 1 || w.Errors != 0 {
		t.Errorf("5m window = %+v, want the old error expired", w)
	}
	for _, w := range snap.Windows[1:] {
		if w.Requests != 2 || w.Errors != 1 {
			t.Errorf("%s window = %+v, want both requests", w.Window, w)
		}
	}
	if snap.Total.Requests != 2 || snap.Total.Errors != 1 {
		t.Errorf("total = %+v, must never expire", snap.Total)
	}
	if snap.UptimeSeconds != 600 {
		t.Errorf("uptime = %v, want 600", snap.UptimeSeconds)
	}
}

func TestSLORingReuseAcrossWraps(t *testing.T) {
	// A bucket slot reused for a much later second must shed its old
	// counts (the ring is longest-window+1 seconds wide).
	tr, clock := sloAt(SLOConfig{})
	tr.Record(500, 1)
	*clock = clock.Add(6*time.Hour + time.Second) // same slot index mod ring length
	tr.Record(200, 1)
	snap := tr.Snapshot()
	for i, w := range snap.Windows {
		if w.Errors != 0 {
			t.Errorf("window %d still sees the pre-wrap error: %+v", i, w)
		}
	}
}

func TestSLOAlertsFiring(t *testing.T) {
	tr, _ := sloAt(SLOConfig{AvailabilityObjective: 0.999})
	snap := tr.Snapshot()
	if len(snap.Alerts) != 4 {
		t.Fatalf("alerts = %d, want availability+latency x page+ticket", len(snap.Alerts))
	}
	for _, a := range snap.Alerts {
		if a.Firing {
			t.Errorf("alert firing with zero traffic: %+v", a)
		}
	}
	// 100% errors: burn 1000 in every window, everything fires.
	for i := 0; i < 20; i++ {
		tr.Record(500, 1)
	}
	snap = tr.Snapshot()
	for _, a := range snap.Alerts {
		if a.SLI == "availability" && !a.Firing {
			t.Errorf("availability alert not firing at 100%% errors: %+v", a)
		}
		if a.SLI == "latency" && a.Firing {
			t.Errorf("latency alert firing with no slow requests: %+v", a)
		}
	}
	page := snap.Alerts[0]
	//lint:allow floatcmp the burn threshold is a hardcoded constant
	if page.Severity != "page" || page.BurnThreshold != 14.4 || page.ShortWindow != "5m0s" {
		t.Errorf("page pair = %+v", page)
	}
}

func TestSLOConcurrentRecord(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{})
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				status := 200
				if i%10 == 0 {
					status = 500
				}
				tr.Record(status, float64(i%400))
			}
		}(w)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.Total.Requests != workers*per {
		t.Errorf("total requests = %d, want %d", snap.Total.Requests, workers*per)
	}
	if snap.Total.Errors != workers*per/10 {
		t.Errorf("total errors = %d, want %d", snap.Total.Errors, workers*per/10)
	}
}

func TestSLOServeHTTP(t *testing.T) {
	tr, _ := sloAt(SLOConfig{})
	tr.Record(200, 1)
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap SLOSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	//lint:allow floatcmp the default objective round-trips JSON exactly
	if snap.AvailabilityObjective != 0.999 || len(snap.Windows) != 3 {
		t.Errorf("snapshot = %+v", snap)
	}
	rec2 := httptest.NewRecorder()
	tr.ServeHTTP(rec2, httptest.NewRequest("POST", "/debug/slo", nil))
	if rec2.Code != 405 {
		t.Errorf("POST status = %d, want 405", rec2.Code)
	}
}
