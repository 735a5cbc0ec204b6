package obs

// Rolling-window SLO tracking with multi-window burn rates, in the
// Google-SRE shape: an availability objective (non-5xx responses) and
// a latency objective (fast responses) each consume an error budget of
// (1 - objective); the burn rate is how many times faster than budget
// the service is currently failing. Burn 1.0 spends exactly the
// budget over the SLO period; burn 14.4 on both a short and a long
// window is the classic page condition (it exhausts a 30-day budget in
// ~2 days), burn 6 on the slow pair is the ticket condition.
//
// The tracker keeps one-second buckets in a ring sized to the longest
// window, so memory is fixed and Record is O(1) under a mutex — cheap
// against request latencies measured in microseconds-to-seconds.
// GET /debug/slo serves the snapshot.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// SLOConfig declares the objectives. Zero values select the defaults
// in parentheses.
type SLOConfig struct {
	// AvailabilityObjective is the target fraction of non-error
	// responses (0.999). Errors are 5xx and transport-level failures
	// (status 0); 4xx — including 429 shed load — count as served.
	AvailabilityObjective float64
	// LatencyObjective is the target fraction of served (non-5xx)
	// responses faster than LatencyThresholdMS (0.99).
	LatencyObjective float64
	// LatencyThresholdMS is the latency SLI threshold (250).
	LatencyThresholdMS float64
}

// sloWindows are the rolling burn-rate windows, ascending. The first
// two form the page pair, the last two the ticket pair.
var sloWindows = [...]time.Duration{5 * time.Minute, time.Hour, 6 * time.Hour}

func (c SLOConfig) withDefaults() SLOConfig {
	if !(c.AvailabilityObjective > 0 && c.AvailabilityObjective < 1) {
		c.AvailabilityObjective = 0.999
	}
	if !(c.LatencyObjective > 0 && c.LatencyObjective < 1) {
		c.LatencyObjective = 0.99
	}
	if c.LatencyThresholdMS <= 0 {
		c.LatencyThresholdMS = 250
	}
	return c
}

// sloBucket is one second of traffic.
type sloBucket struct {
	sec            int64 // unix second this bucket currently represents
	req, err, slow uint64
}

// SLOTracker records request outcomes and serves burn-rate snapshots.
// A nil *SLOTracker is inert. Create with NewSLOTracker.
type SLOTracker struct {
	cfg SLOConfig
	now func() time.Time // injectable for tests

	mu      sync.Mutex
	ring    []sloBucket
	start   time.Time
	totReq  uint64
	totErr  uint64
	totSlow uint64
}

// NewSLOTracker builds a tracker, applying defaults for zero config
// fields.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	t := &SLOTracker{
		cfg:  cfg.withDefaults(),
		now:  time.Now,
		ring: make([]sloBucket, int(sloWindows[len(sloWindows)-1]/time.Second)+1),
	}
	t.start = t.now()
	return t
}

// Record counts one finished request: its HTTP status (0 for a request
// that never produced a response) and its latency. Nil-safe.
func (t *SLOTracker) Record(status int, latencyMS float64) {
	if t == nil {
		return
	}
	isErr := status == 0 || status >= 500
	isSlow := !isErr && latencyMS > t.cfg.LatencyThresholdMS
	sec := t.now().Unix()
	t.mu.Lock()
	b := &t.ring[sec%int64(len(t.ring))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	b.req++
	t.totReq++
	if isErr {
		b.err++
		t.totErr++
	}
	if isSlow {
		b.slow++
		t.totSlow++
	}
	t.mu.Unlock()
}

// SLOWindow is one window's view in the snapshot.
type SLOWindow struct {
	Window          string  `json:"window"` // "5m0s", or "since_start"
	Requests        uint64  `json:"requests"`
	Errors          uint64  `json:"errors"`
	ErrorRate       float64 `json:"error_rate"`
	ErrorBurnRate   float64 `json:"error_burn_rate"`
	Slow            uint64  `json:"slow"`
	SlowRate        float64 `json:"slow_rate"`
	LatencyBurnRate float64 `json:"latency_burn_rate"`
}

// SLOAlert is one multi-window burn-rate rule's current state.
type SLOAlert struct {
	SLI           string  `json:"sli"`      // "availability" or "latency"
	Severity      string  `json:"severity"` // "page" or "ticket"
	ShortWindow   string  `json:"short_window"`
	LongWindow    string  `json:"long_window"`
	BurnThreshold float64 `json:"burn_threshold"`
	Firing        bool    `json:"firing"`
}

// SLOSnapshot is the /debug/slo payload.
type SLOSnapshot struct {
	AvailabilityObjective float64     `json:"availability_objective"`
	LatencyObjective      float64     `json:"latency_objective"`
	LatencyThresholdMS    float64     `json:"latency_threshold_ms"`
	UptimeSeconds         float64     `json:"uptime_seconds"`
	Windows               []SLOWindow `json:"windows"`
	Total                 SLOWindow   `json:"total"`
	Alerts                []SLOAlert  `json:"alerts"`
}

// fill computes the derived rates for a window's raw counts.
func (t *SLOTracker) fill(w *SLOWindow) {
	if w.Requests > 0 {
		w.ErrorRate = float64(w.Errors) / float64(w.Requests)
		served := w.Requests - w.Errors
		if served > 0 {
			w.SlowRate = float64(w.Slow) / float64(served)
		}
	}
	w.ErrorBurnRate = w.ErrorRate / (1 - t.cfg.AvailabilityObjective)
	w.LatencyBurnRate = w.SlowRate / (1 - t.cfg.LatencyObjective)
}

// Snapshot returns the current multi-window view. Nil-safe (zero
// snapshot).
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{}
	}
	nowSec := t.now().Unix()
	snap := SLOSnapshot{
		AvailabilityObjective: t.cfg.AvailabilityObjective,
		LatencyObjective:      t.cfg.LatencyObjective,
		LatencyThresholdMS:    t.cfg.LatencyThresholdMS,
		UptimeSeconds:         t.now().Sub(t.start).Seconds(),
	}
	wins := make([]SLOWindow, len(sloWindows))
	var winSecs [len(sloWindows)]int64
	for i, d := range sloWindows {
		wins[i].Window = d.String()
		winSecs[i] = int64(d / time.Second)
	}
	t.mu.Lock()
	for i := range t.ring {
		b := t.ring[i]
		if b.sec == 0 || b.req == 0 {
			continue
		}
		age := nowSec - b.sec
		if age < 0 {
			continue
		}
		for j := range wins {
			if age < winSecs[j] {
				wins[j].Requests += b.req
				wins[j].Errors += b.err
				wins[j].Slow += b.slow
			}
		}
	}
	snap.Total = SLOWindow{
		Window:   "since_start",
		Requests: t.totReq,
		Errors:   t.totErr,
		Slow:     t.totSlow,
	}
	t.mu.Unlock()
	for i := range wins {
		t.fill(&wins[i])
	}
	t.fill(&snap.Total)
	snap.Windows = wins
	snap.Alerts = t.alerts(wins)
	return snap
}

// alerts evaluates the standard multi-window rules over the computed
// windows: page when both windows of the fast pair burn >= 14.4,
// ticket when both windows of the slow pair burn >= 6.
func (t *SLOTracker) alerts(wins []SLOWindow) []SLOAlert {
	type pair struct {
		short, long int
		threshold   float64
		severity    string
	}
	pairs := []pair{
		{0, 1, 14.4, "page"},
		{len(wins) - 2, len(wins) - 1, 6, "ticket"},
	}
	out := make([]SLOAlert, 0, 2*len(pairs))
	for _, p := range pairs {
		s, l := wins[p.short], wins[p.long]
		out = append(out,
			SLOAlert{
				SLI: "availability", Severity: p.severity,
				ShortWindow: s.Window, LongWindow: l.Window, BurnThreshold: p.threshold,
				Firing: s.ErrorBurnRate >= p.threshold && l.ErrorBurnRate >= p.threshold,
			},
			SLOAlert{
				SLI: "latency", Severity: p.severity,
				ShortWindow: s.Window, LongWindow: l.Window, BurnThreshold: p.threshold,
				Firing: s.LatencyBurnRate >= p.threshold && l.LatencyBurnRate >= p.threshold,
			})
	}
	return out
}

// ServeHTTP answers GET /debug/slo with the snapshot.
func (t *SLOTracker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t.Snapshot()); err != nil {
		// Headers are gone; nothing better to do than log-by-status.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}
