package obs

// Request-scoped latency attribution. A ReqTrace is created per HTTP
// request by InstrumentHandler and carried down the serving path via
// context.Context; each stage (cache lookup, pool queue wait,
// singleflight coalesce wait, plan/Monte-Carlo compute) records a
// PhaseSpan against it. When the request finishes, Tracer.Offer closes
// the trace and the tail sampler copies it into the store if it keeps
// it.
//
// Concurrency: phases arrive from several goroutines — the handler
// goroutine, the singleflight leader goroutine and the pool worker —
// so ReqTrace is mutex-guarded. A computation that outlives its
// request (a coalesced leader whose client gave up while followers
// still wait) keeps a pointer to the leader's ReqTrace; phases
// recorded after the trace closes are dropped, which is what preserves
// the attribution invariant queue + coalesce + compute <= total on
// every published record.

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"
)

// PhaseSpan is one attributed interval within a request, offsets in
// milliseconds from the request's start.
type PhaseSpan struct {
	Name    string            `json:"name"`
	StartMS float64           `json:"start_ms"`
	DurMS   float64           `json:"dur_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Phase names the serving path records. Breakdown keys are derived as
// "<name>_ms"; only the first three participate in the attribution
// invariant (cache lookups overlap none of them but are reported
// separately).
const (
	PhaseQueue    = "queue"    // pool submission -> worker pickup
	PhaseCoalesce = "coalesce" // waiting on another request's in-flight compute
	PhaseCompute  = "compute"  // planner recurrence or Monte-Carlo
	PhaseCache    = "cache"    // LRU lookup, attr "outcome" hit|miss
	PhasePeer     = "peer"     // cluster peer cache fill, attr "outcome" hit|miss
)

// ReqTrace is one request's live trace. A nil *ReqTrace is fully
// inert: every method no-ops (or returns a zero value), so
// uninstrumented paths need no checks.
type ReqTrace struct {
	tc     TraceContext
	parent [8]byte // remote parent span, zero when locally rooted
	remote bool
	route  string
	start  time.Time

	mu        sync.Mutex
	finalized bool
	phases    []PhaseSpan
	attrs     map[string]string
}

// NewReqTrace starts a locally rooted trace for route.
func NewReqTrace(route string) *ReqTrace {
	return &ReqTrace{tc: NewTraceContext(), route: route, start: time.Now()}
}

// ContinueReqTrace starts a trace stitched under a remote parent (a
// parsed incoming traceparent): same trace ID, fresh span ID, the
// parent's span recorded for cross-process stitching.
func ContinueReqTrace(parent TraceContext, route string) *ReqTrace {
	rt := &ReqTrace{
		tc:     parent.NewChild(),
		parent: parent.SpanID,
		remote: true,
		route:  route,
		start:  time.Now(),
	}
	return rt
}

// Context returns the trace context this request's spans live under.
func (rt *ReqTrace) Context() TraceContext {
	if rt == nil {
		return TraceContext{}
	}
	return rt.tc
}

// TraceID returns the hex trace ID, "" on a nil trace.
func (rt *ReqTrace) TraceID() string {
	if rt == nil {
		return ""
	}
	return rt.tc.TraceIDString()
}

// AddPhase records one completed phase. attrs are alternating
// key/value pairs (a trailing odd key is ignored). Phases recorded
// after the trace closes (Finalize or Tracer.Offer) are dropped.
func (rt *ReqTrace) AddPhase(name string, start time.Time, d time.Duration, attrs ...string) {
	if rt == nil {
		return
	}
	ps := PhaseSpan{
		Name:    name,
		StartMS: clampNonNeg(float64(start.Sub(rt.start)) / float64(time.Millisecond)),
		DurMS:   clampNonNeg(float64(d) / float64(time.Millisecond)),
	}
	if len(attrs) >= 2 {
		ps.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			ps.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	rt.mu.Lock()
	if !rt.finalized {
		rt.phases = append(rt.phases, ps)
	}
	rt.mu.Unlock()
}

// StartPhase starts a phase now and returns the function that ends it;
// an unended phase records nothing.
func (rt *ReqTrace) StartPhase(name string) func(attrs ...string) {
	if rt == nil {
		return func(...string) {}
	}
	t0 := time.Now()
	return func(attrs ...string) {
		rt.AddPhase(name, t0, time.Since(t0), attrs...)
	}
}

// Annotate attaches a key/value attribute to the trace root.
func (rt *ReqTrace) Annotate(k, v string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	if !rt.finalized {
		if rt.attrs == nil {
			rt.attrs = make(map[string]string)
		}
		rt.attrs[k] = v
	}
	rt.mu.Unlock()
}

// ServerTiming renders the phases recorded so far (plus the running
// total) in the Server-Timing response-header syntax, e.g.
// "cache;dur=0.010;desc=miss, queue;dur=0.400, compute;dur=5.200,
// total;dur=5.700". Empty on a nil trace.
func (rt *ReqTrace) ServerTiming() string {
	if rt == nil {
		return ""
	}
	total := float64(time.Since(rt.start)) / float64(time.Millisecond)
	rt.mu.Lock()
	phases := rt.phases
	var sb strings.Builder
	for _, p := range phases {
		if sb.Len() > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Name)
		sb.WriteString(";dur=")
		sb.WriteString(strconv.FormatFloat(p.DurMS, 'f', 3, 64))
		if out, ok := p.Attrs["outcome"]; ok {
			sb.WriteString(";desc=")
			sb.WriteString(out)
		}
	}
	rt.mu.Unlock()
	if sb.Len() > 0 {
		sb.WriteString(", ")
	}
	sb.WriteString("total;dur=")
	sb.WriteString(strconv.FormatFloat(total, 'f', 3, 64))
	return sb.String()
}

// Finalize closes the trace: the total is stamped, late phases are
// locked out, and the snapshot is returned. The zero record (empty
// TraceID) is returned on a nil trace. Tracer.Offer closes a trace the
// same way without building the record unless it keeps it.
func (rt *ReqTrace) Finalize(status int) TraceRecord {
	if rt == nil {
		return TraceRecord{}
	}
	var s traceSlot
	s.fill(rt, status, rt.close(), "")
	return s.record()
}

// close locks out later phases and annotations and returns the total
// in milliseconds.
func (rt *ReqTrace) close() float64 {
	totalMS := float64(time.Since(rt.start)) / float64(time.Millisecond)
	rt.mu.Lock()
	rt.finalized = true
	rt.mu.Unlock()
	return totalMS
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Context plumbing. The serving path passes a ReqTrace down through
// context.Context so layers that know nothing of HTTP (the pool, the
// Monte-Carlo runner) can still attribute their time. All helpers are
// nil-safe: on a context without a trace they return inert values, so
// the uninstrumented cost is one context lookup per call site — never
// per episode.

type reqTraceKey struct{}

// ContextWithReqTrace returns ctx carrying rt.
func ContextWithReqTrace(ctx context.Context, rt *ReqTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// ReqTraceFrom returns the context's ReqTrace, nil when absent.
func ReqTraceFrom(ctx context.Context) *ReqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return rt
}

// StartPhase starts a phase on the context's trace; on an untraced
// context the returned end function no-ops.
func StartPhase(ctx context.Context, name string) func(attrs ...string) {
	return ReqTraceFrom(ctx).StartPhase(name)
}

// Annotate attaches an attribute to the context's trace, if any.
func Annotate(ctx context.Context, k, v string) {
	ReqTraceFrom(ctx).Annotate(k, v)
}
