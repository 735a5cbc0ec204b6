package obs

import (
	"net/http"
	"strconv"
	"time"
)

// ResponseRecorder wraps a ResponseWriter and captures the status code
// actually sent, so middleware can attribute a request to its outcome.
// A handler that writes a body without an explicit WriteHeader is
// recorded as 200, matching net/http's behaviour.
type ResponseRecorder struct {
	http.ResponseWriter
	code int
}

// NewResponseRecorder wraps w.
func NewResponseRecorder(w http.ResponseWriter) *ResponseRecorder {
	return &ResponseRecorder{ResponseWriter: w}
}

// WriteHeader records the first status code and forwards it.
func (r *ResponseRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write forwards the body, defaulting the recorded status to 200 the
// way the underlying ResponseWriter does.
func (r *ResponseRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// Code returns the recorded status code (200 when the handler wrote a
// body without WriteHeader, 0 when nothing was written at all).
func (r *ResponseRecorder) Code() int { return r.code }

// timingWriter stamps the trace response headers (Server-Timing with
// the per-phase breakdown, X-Trace-Id) at the moment the handler
// commits the response — the latest point headers can still be set,
// and by then the serving path has recorded its phases.
type timingWriter struct {
	*ResponseRecorder
	rt *ReqTrace
}

func (tw *timingWriter) stamp() {
	if tw.Code() != 0 {
		return // headers already committed
	}
	h := tw.Header()
	h.Set("Server-Timing", tw.rt.ServerTiming())
	h.Set(TraceIDHeader, tw.rt.TraceID())
}

func (tw *timingWriter) WriteHeader(code int) {
	tw.stamp()
	tw.ResponseRecorder.WriteHeader(code)
}

func (tw *timingWriter) Write(p []byte) (int, error) {
	tw.stamp()
	return tw.ResponseRecorder.Write(p)
}

// InstrumentHandler wraps next so every request updates two series on
// reg:
//
//	cs_http_requests_total{route="<route>",code="<status>"}  counter
//	cs_http_request_ms{route="<route>"}                      quantile summary
//
// The latency summary is a QuantileHist (p50/p90/p99/p999 at fixed
// relative error), recorded in milliseconds. Routes are a closed,
// caller-chosen vocabulary — never derived from the request path — so
// the label space stays bounded.
//
// It is also where a request's trace begins: an incoming W3C
// traceparent header continues the caller's trace (csload -> csserve
// stitch into one), anything else roots a fresh one. The ReqTrace
// rides the request context so the serving path can attribute queue /
// cache / coalesce / compute time; the response carries Server-Timing
// and X-Trace-Id headers, and the finalized record is offered to tr's
// tail sampler (tr may be nil — headers and context still work,
// nothing is stored). When slo is non-nil every outcome also feeds the
// rolling SLO windows, so /debug/slo burn rates cover exactly the
// instrumented routes.
func InstrumentHandler(reg *Registry, route string, tr *Tracer, slo *SLOTracker, next http.Handler) http.Handler {
	if reg == nil {
		return next
	}
	lat := reg.Quantiles(Labeled("cs_http_request_ms", "route", route),
		"HTTP request latency in milliseconds (log-bucketed quantile summary)")
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var rt *ReqTrace
		// Only a present header is parsed: an untraced request starts a
		// fresh trace without building ParseTraceparent's error.
		if h := req.Header.Get(TraceparentHeader); h != "" {
			if parent, err := ParseTraceparent(h); err == nil {
				rt = ContinueReqTrace(parent, route)
			}
		}
		if rt == nil {
			rt = NewReqTrace(route)
		}
		req = req.WithContext(ContextWithReqTrace(req.Context(), rt))
		tw := &timingWriter{ResponseRecorder: NewResponseRecorder(w), rt: rt}
		start := time.Now()
		next.ServeHTTP(tw, req)
		code := tw.Code()
		if code == 0 {
			code = http.StatusOK
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		lat.Observe(ms)
		reg.Counter(Labeled("cs_http_requests_total", "route", route, "code", strconv.Itoa(code)),
			"HTTP requests by route and status code").Inc()
		slo.Record(code, ms)
		tr.Offer(rt, code)
	})
}
