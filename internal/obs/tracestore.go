package obs

// Bounded in-memory trace store with tail-based sampling and the
// GET /debug/traces query endpoint.
//
// Head sampling (deciding at request start) cannot know which requests
// will matter; the requests worth keeping are exactly the ones whose
// outcome is only known at the end — errors, shed load, and the slow
// tail. So the Tracer samples at Finalize time: errors and 429s are
// always kept, the slowest K per time window are always kept, and the
// rest are kept with a fixed probability so the store also reflects
// normal traffic. Kept records land in a fixed-size ring; memory is
// bounded by Capacity regardless of load.

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceRecord is one finalized request trace — the unit the sampler
// keeps and /debug/traces serves. Breakdown sums phase durations by
// name ("queue_ms", "coalesce_ms", "compute_ms", ...) plus "total_ms";
// the serving path guarantees queue+coalesce+compute <= total because
// phases arriving after Finalize are dropped.
type TraceRecord struct {
	TraceID       string             `json:"trace_id"`
	SpanID        string             `json:"span_id"`
	ParentID      string             `json:"parent_id,omitempty"`
	Remote        bool               `json:"remote,omitempty"`
	Route         string             `json:"route"`
	Status        int                `json:"status"`
	StartUnixNano int64              `json:"start_unix_nano"`
	TotalMS       float64            `json:"total_ms"`
	Cache         string             `json:"cache,omitempty"`
	Breakdown     map[string]float64 `json:"breakdown"`
	Phases        []PhaseSpan        `json:"phases,omitempty"`
	Attrs         map[string]string  `json:"attrs,omitempty"`
	SampledBy     string             `json:"sampled_by,omitempty"`
}

// TracerConfig sizes the store and tunes the tail-sampling policy.
// Zero values select the defaults in parentheses.
type TracerConfig struct {
	Capacity   int           // ring size in records (2048)
	SampleRate float64       // probabilistic keep for unremarkable requests (0.1); negative disables
	SlowestK   int           // always-keep budget for the slowest requests per window (8)
	Window     time.Duration // slowest-K comparison window (10s)
}

// Sample reasons stamped into TraceRecord.SampledBy.
const (
	SampledError = "error" // status >= 400 (incl. 429) or no status at all
	SampledSlow  = "slow"  // among the SlowestK totals in the current window
	SampledRate  = "rate"  // won the SampleRate coin toss
)

// Tracer is the tail sampler plus ring store. It is an http.Handler
// serving the /debug/traces query API. A nil *Tracer is inert: Offer
// drops everything, so untraced deployments pay one nil check.
type Tracer struct {
	cfg TracerConfig
	now func() time.Time // injectable clock for window-rotation tests

	mu          sync.Mutex
	ring        []TraceRecord
	next        int // ring insertion cursor
	filled      bool
	offered     uint64
	kept        uint64
	byReason    map[string]uint64
	windowStart time.Time
	slowest     []float64 // ascending; the cfg.SlowestK largest totals seen this window
	slowFloor   float64   // admission floor carried from the last full window
}

// NewTracer builds a Tracer, applying defaults for zero config fields.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2048
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 0.1
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SlowestK <= 0 {
		cfg.SlowestK = 8
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Second
	}
	t := &Tracer{
		cfg:      cfg,
		now:      time.Now,
		ring:     make([]TraceRecord, cfg.Capacity),
		byReason: make(map[string]uint64, 3),
	}
	t.windowStart = t.now()
	return t
}

// Offer submits a finalized record to the sampler and reports whether
// it was kept. Records with an empty TraceID (a nil ReqTrace's
// Finalize) are ignored.
func (t *Tracer) Offer(rec TraceRecord) bool {
	if t == nil || rec.TraceID == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.offered++
	reason := t.sampleReason(rec)
	if reason == "" {
		return false
	}
	rec.SampledBy = reason
	t.kept++
	t.byReason[reason]++
	t.ring[t.next] = rec
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	return true
}

// sampleReason applies the tail policy; "" means drop. Caller holds mu.
func (t *Tracer) sampleReason(rec TraceRecord) string {
	// Errors and shed load (429) always matter; a record with no
	// status at all means the handler died, which matters most.
	if rec.Status >= 400 || rec.Status == 0 {
		return SampledError
	}
	// Slowest K per window. The buffer tracks the K largest totals
	// observed this window; while it is still warming up after a
	// reset, a record is only *kept* as slow if it also beats the
	// floor carried from the last full window — otherwise the first K
	// arrivals of every window would be labeled slow regardless of
	// latency. Records below the carried floor still fall through to
	// rate sampling.
	now := t.now()
	if now.Sub(t.windowStart) > t.cfg.Window {
		t.windowStart = now
		// Only a full buffer defines a meaningful floor; a sparse
		// window keeps the previous one.
		if len(t.slowest) >= t.cfg.SlowestK {
			t.slowFloor = t.slowest[0]
		}
		t.slowest = t.slowest[:0]
	}
	warm := len(t.slowest) >= t.cfg.SlowestK
	if !warm || rec.TotalMS > t.slowest[0] {
		i := sort.SearchFloat64s(t.slowest, rec.TotalMS)
		t.slowest = append(t.slowest, 0)
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = rec.TotalMS
		if len(t.slowest) > t.cfg.SlowestK {
			t.slowest = t.slowest[1:]
		}
		if warm || rec.TotalMS >= t.slowFloor {
			return SampledSlow
		}
	}
	// Probabilistic remainder: a splitmix64 draw mapped to [0, 1).
	coin := float64(nextID64()>>11) / (1 << 53)
	if coin < t.cfg.SampleRate {
		return SampledRate
	}
	return ""
}

// TracerStats is the store's self-description, embedded in the
// /debug/traces response and available to health surfaces.
type TracerStats struct {
	Offered  uint64            `json:"offered"`
	Kept     uint64            `json:"kept"`
	ByReason map[string]uint64 `json:"by_reason,omitempty"`
	Capacity int               `json:"capacity"`
	Stored   int               `json:"stored"`
}

// Stats returns current sampler counters. Nil-safe.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TracerStats{
		Offered:  t.offered,
		Kept:     t.kept,
		Capacity: len(t.ring),
		Stored:   t.storedLocked(),
	}
	if len(t.byReason) > 0 {
		st.ByReason = make(map[string]uint64, len(t.byReason))
		for k, v := range t.byReason {
			st.ByReason[k] = v
		}
	}
	return st
}

func (t *Tracer) storedLocked() int {
	if t.filled {
		return len(t.ring)
	}
	return t.next
}

// TraceQuery filters a store read. Zero fields match everything.
type TraceQuery struct {
	MinMS   float64 // keep records with TotalMS >= MinMS
	Status  int     // keep records with this exact status
	Route   string  // keep records on this route
	Phase   string  // keep records whose breakdown has "<Phase>_ms" > 0
	TraceID string  // keep records of this trace
	Slowest bool    // order by TotalMS descending instead of most recent first
	Limit   int     // max records returned (default 50)
}

// Query returns matching records, most recent first (or slowest first
// when q.Slowest). Nil-safe.
func (t *Tracer) Query(q TraceQuery) []TraceRecord {
	if t == nil {
		return nil
	}
	if q.Limit <= 0 {
		q.Limit = 50
	}
	t.mu.Lock()
	stored := t.storedLocked()
	recs := make([]TraceRecord, 0, stored)
	// Walk backwards from the cursor: most recent first.
	for i := 0; i < stored; i++ {
		idx := t.next - 1 - i
		if idx < 0 {
			idx += len(t.ring)
		}
		rec := t.ring[idx]
		if rec.TotalMS < q.MinMS {
			continue
		}
		if q.Status != 0 && rec.Status != q.Status {
			continue
		}
		if q.Route != "" && rec.Route != q.Route {
			continue
		}
		if q.TraceID != "" && rec.TraceID != q.TraceID {
			continue
		}
		if q.Phase != "" && !(rec.Breakdown[q.Phase+"_ms"] > 0) {
			continue
		}
		recs = append(recs, rec)
	}
	t.mu.Unlock()
	if q.Slowest {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].TotalMS > recs[j].TotalMS })
	}
	if len(recs) > q.Limit {
		recs = recs[:q.Limit]
	}
	return recs
}

// tracesResponse is the /debug/traces payload.
type tracesResponse struct {
	Stats  TracerStats   `json:"stats"`
	Traces []TraceRecord `json:"traces"`
}

// ServeHTTP answers GET /debug/traces. Query parameters: min_ms
// (float), status (int), route, phase (breakdown key without the _ms
// suffix), trace (trace ID), order=slowest|recent, limit (int).
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	qp := r.URL.Query()
	var q TraceQuery
	if v := qp.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "bad min_ms: "+err.Error(), http.StatusBadRequest)
			return
		}
		q.MinMS = f
	}
	if v := qp.Get("status"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad status: "+err.Error(), http.StatusBadRequest)
			return
		}
		q.Status = n
	}
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad limit: "+err.Error(), http.StatusBadRequest)
			return
		}
		q.Limit = n
	}
	q.Route = qp.Get("route")
	q.Phase = qp.Get("phase")
	q.TraceID = qp.Get("trace")
	q.Slowest = qp.Get("order") == "slowest"

	resp := tracesResponse{Stats: t.Stats(), Traces: t.Query(q)}
	if resp.Traces == nil {
		resp.Traces = []TraceRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
