package obs

// Bounded in-memory trace store with tail-based sampling and the
// GET /debug/traces query endpoint.
//
// Head sampling (deciding at request start) cannot know which requests
// will matter; the requests worth keeping are exactly the ones whose
// outcome is only known at the end — errors, shed load, and the slow
// tail. So the Tracer samples when the request ends: errors and 429s
// are always kept, the slowest K per time window are always kept, and
// the rest are kept with a fixed probability so the store also
// reflects normal traffic. The decision needs only the status and the
// total, so a dropped request builds nothing. Kept records are copied
// into a ring of Capacity fixed-size slots. Each slot is allocated once,
// when the ring's first pass reaches it, and reused ever after: the
// store's memory stops at Capacity slots however high the throughput,
// and an idle store costs one pointer per slot. The wire TraceRecord is
// built only when /debug/traces reads a slot.

import (
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceRecord is one finished request trace in its wire form: what
// /debug/traces serves and Finalize returns. Breakdown sums phase
// durations by name ("queue_ms", "coalesce_ms", "compute_ms", ...) plus
// "total_ms"; the serving path guarantees queue+coalesce+compute <=
// total because phases arriving after the trace closes are dropped.
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

// A trace slot holds a whole record inline when it has at most
// slotPhases phases of at most slotAttrs attributes each and at most
// slotAttrs root attributes: every trace csserve records fits, the
// deepest being a fresh cluster estimate (cache, peer, queue, mc,
// compute). A record that needs more — a csgate request failing over
// across many replicas — spills its phases or root attributes into an
// overflow allocated for it alone.
const (
	slotPhases = 8
	slotAttrs  = 2
)

// slotAttr is one attribute held inline.
type slotAttr struct{ k, v string }

// slotPhase is a PhaseSpan held inline.
type slotPhase struct {
	name           string
	startMS, durMS float64
	nattrs         int
	attrs          [slotAttrs]slotAttr
}

// traceSlot is one ring entry: a kept record in its stored form, 992
// bytes on 64-bit platforms so that it fills a 1 KiB size class. IDs
// stay bytes; Breakdown and Cache are derived when record builds the
// wire form.
type traceSlot struct {
	traceID   [16]byte
	spanID    [8]byte
	parentID  [8]byte
	remote    bool
	nphases   uint8
	nattrs    uint8
	status    int32
	route     string
	start     int64 // Unix nanoseconds
	totalMS   float64
	sampledBy string

	phases [slotPhases]slotPhase
	attrs  [slotAttrs]slotAttr
	more   *slotOverflow // nil unless the record does not fit inline
}

// slotOverflow holds what a record that does not fit inline keeps
// instead: every phase, or the root attributes.
type slotOverflow struct {
	phases []PhaseSpan
	attrs  map[string]string
}

// fill copies the closed trace rt into s, allocating only for a record
// that does not fit inline. rt is closed, so its phases and attributes
// no longer change and are read without its lock.
func (s *traceSlot) fill(rt *ReqTrace, status int, totalMS float64, sampledBy string) {
	// Resetting the slot also drops the previous occupant's overflow.
	*s = traceSlot{
		traceID:   rt.tc.TraceID,
		spanID:    rt.tc.SpanID,
		parentID:  rt.parent,
		remote:    rt.remote,
		status:    int32(status),
		route:     rt.route,
		start:     rt.start.UnixNano(),
		totalMS:   totalMS,
		sampledBy: sampledBy,
	}
	if fitsInline(rt.phases) {
		s.nphases = uint8(len(rt.phases))
		for i, p := range rt.phases {
			sp := &s.phases[i]
			sp.name, sp.startMS, sp.durMS = p.Name, p.StartMS, p.DurMS
			sp.nattrs = copyAttrs(sp.attrs[:], p.Attrs)
		}
	} else {
		s.more = &slotOverflow{phases: append([]PhaseSpan(nil), rt.phases...)}
	}
	if len(rt.attrs) <= slotAttrs {
		s.nattrs = uint8(copyAttrs(s.attrs[:], rt.attrs))
		return
	}
	if s.more == nil {
		s.more = &slotOverflow{}
	}
	s.more.attrs = make(map[string]string, len(rt.attrs))
	for k, v := range rt.attrs {
		s.more.attrs[k] = v
	}
}

func fitsInline(phases []PhaseSpan) bool {
	if len(phases) > slotPhases {
		return false
	}
	for _, p := range phases {
		if len(p.Attrs) > slotAttrs {
			return false
		}
	}
	return true
}

// copyAttrs copies m, which fits, into dst and returns its size.
func copyAttrs(dst []slotAttr, m map[string]string) int {
	n := 0
	for k, v := range m {
		dst[n] = slotAttr{k, v}
		n++
	}
	return n
}

// attrMap rebuilds the map form of inline attributes, nil when empty.
func attrMap(attrs []slotAttr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.k] = a.v
	}
	return m
}

// phaseMS sums the durations of s's phases named name.
func (s *traceSlot) phaseMS(name string) float64 {
	ms := 0.0
	for _, p := range s.phases[:s.nphases] {
		if p.name == name {
			ms += p.durMS
		}
	}
	if s.more != nil {
		for _, p := range s.more.phases {
			if p.Name == name {
				ms += p.DurMS
			}
		}
	}
	return ms
}

// record builds the wire form of s: hex IDs, the phases, and the
// Breakdown and Cache derived from them.
func (s *traceSlot) record() TraceRecord {
	rec := TraceRecord{
		TraceID:       hex.EncodeToString(s.traceID[:]),
		SpanID:        hex.EncodeToString(s.spanID[:]),
		Remote:        s.remote,
		Route:         s.route,
		Status:        int(s.status),
		StartUnixNano: s.start,
		TotalMS:       s.totalMS,
		SampledBy:     s.sampledBy,
	}
	if s.remote {
		rec.ParentID = hex.EncodeToString(s.parentID[:])
	}
	if s.more != nil {
		rec.Phases, rec.Attrs = s.more.phases, s.more.attrs
	}
	if s.nphases > 0 {
		rec.Phases = make([]PhaseSpan, s.nphases)
		for i, p := range s.phases[:s.nphases] {
			rec.Phases[i] = PhaseSpan{Name: p.name, StartMS: p.startMS, DurMS: p.durMS, Attrs: attrMap(p.attrs[:p.nattrs])}
		}
	}
	if s.nattrs > 0 {
		rec.Attrs = attrMap(s.attrs[:s.nattrs])
	}
	rec.Breakdown = make(map[string]float64, len(rec.Phases)+1)
	for _, p := range rec.Phases {
		rec.Breakdown[p.Name+"_ms"] += p.DurMS
		if p.Name == PhaseCache {
			if out, ok := p.Attrs["outcome"]; ok {
				rec.Cache = out
			}
		}
	}
	rec.Breakdown["total_ms"] = s.totalMS
	return rec
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
	ring        []*traceSlot // a slot is allocated when the first pass reaches it
	next        int          // ring insertion cursor
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
		ring:     make([]*traceSlot, cfg.Capacity),
		byReason: make(map[string]uint64, 3),
		slowest:  make([]float64, 0, cfg.SlowestK),
	}
	t.windowStart = t.now()
	return t
}

// Offer closes rt with the response status — later phases are dropped,
// as by Finalize — and submits it to the tail sampler, reporting
// whether it was kept. A kept trace is copied into the next slot, which
// is allocated only on the ring's first pass; a dropped one builds
// nothing. A nil rt is ignored.
func (t *Tracer) Offer(rt *ReqTrace, status int) bool {
	if rt == nil {
		return false
	}
	totalMS := rt.close()
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.offered++
	reason := t.sampleReason(status, totalMS)
	if reason == "" {
		return false
	}
	t.kept++
	t.byReason[reason]++
	slot := t.ring[t.next]
	if slot == nil {
		slot = new(traceSlot)
		t.ring[t.next] = slot
	}
	slot.fill(rt, status, totalMS, reason)
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	return true
}

// sampleReason applies the tail policy; "" means drop. Caller holds mu.
func (t *Tracer) sampleReason(status int, totalMS float64) string {
	// Errors and shed load (429) always matter; a record with no
	// status at all means the handler died, which matters most.
	if status >= 400 || status == 0 {
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
	if !warm || totalMS > t.slowest[0] {
		if warm {
			// Evict the minimum, then insert in order: the buffer never
			// outgrows the capacity NewTracer gave it.
			i := sort.SearchFloat64s(t.slowest[1:], totalMS)
			copy(t.slowest[:i], t.slowest[1:i+1])
			t.slowest[i] = totalMS
			return SampledSlow
		}
		i := sort.SearchFloat64s(t.slowest, totalMS)
		t.slowest = append(t.slowest, 0)
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = totalMS
		if totalMS >= t.slowFloor {
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
	var traceID [16]byte
	if q.TraceID != "" && hexLower(q.TraceID, traceID[:]) != nil {
		return nil // not 32 lowercase hex digits: no record has this ID
	}
	picked := t.pick(q, traceID)
	var recs []TraceRecord
	for i := range picked {
		recs = append(recs, picked[i].record())
	}
	return recs
}

// pick copies out the slots Query returns, in its order, so that the
// wire records are built without holding mu.
func (t *Tracer) pick(q TraceQuery, traceID [16]byte) []traceSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	stored := t.storedLocked()
	var hits []*traceSlot
	// Walk backwards from the cursor: most recent first.
	for i := 0; i < stored; i++ {
		idx := t.next - 1 - i
		if idx < 0 {
			idx += len(t.ring)
		}
		s := t.ring[idx]
		if s.totalMS < q.MinMS {
			continue
		}
		if q.Status != 0 && int(s.status) != q.Status {
			continue
		}
		if q.Route != "" && s.route != q.Route {
			continue
		}
		if q.TraceID != "" && s.traceID != traceID {
			continue
		}
		if q.Phase != "" && !(s.phaseMS(q.Phase) > 0) {
			continue
		}
		hits = append(hits, s)
	}
	if q.Slowest {
		sort.SliceStable(hits, func(i, j int) bool { return hits[i].totalMS > hits[j].totalMS })
	}
	if len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	picked := make([]traceSlot, len(hits))
	for i, s := range hits {
		picked[i] = *s
	}
	return picked
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
