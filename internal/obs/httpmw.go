package obs

import (
	"net/http"
	"strconv"
	"time"
)

// timingWriter records the status code a handler sends, so the
// middleware can attribute the request to its outcome, and stamps the
// trace response headers (Server-Timing with the per-phase breakdown,
// X-Trace-Id) at the moment the handler commits the response — the
// latest point headers can still be set, and by then the serving path
// has recorded its phases. A handler that writes a body without an
// explicit WriteHeader is recorded as 200, matching net/http's
// behaviour; code stays 0 when nothing was written at all.
type timingWriter struct {
	http.ResponseWriter
	rt   *ReqTrace
	code int
}

func (tw *timingWriter) stamp() {
	h := tw.Header()
	h.Set("Server-Timing", tw.rt.ServerTiming())
	h.Set(TraceIDHeader, tw.rt.TraceID())
}

func (tw *timingWriter) WriteHeader(code int) {
	if tw.code == 0 {
		tw.stamp()
		tw.code = code
	}
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *timingWriter) Write(p []byte) (int, error) {
	if tw.code == 0 {
		tw.stamp()
		tw.code = http.StatusOK
	}
	return tw.ResponseWriter.Write(p)
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
		tw := &timingWriter{ResponseWriter: w, rt: rt}
		start := time.Now()
		next.ServeHTTP(tw, req)
		code := tw.code
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
