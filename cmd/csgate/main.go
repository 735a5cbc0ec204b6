// Command csgate is the cluster front tier: it consistent-hash-routes
// plan and estimate requests across N csserve replicas by their
// canonical cache key, so every key has one owner replica and the
// cluster as a whole computes each distinct question at most once.
// Rendezvous hashing means adding or draining a replica remaps only
// that replica's own arc — a rolling restart never invalidates the
// survivors' caches.
//
// Usage:
//
//	csgate -replicas http://h1:8080,http://h2:8080,http://h3:8080
//	csgate -addr :8090 -probe 500ms -retries 2
//	csgate -trace-store 4096 -slo-target 0.999
//
// Routing walks the key's preference order (owner first, then the
// replica that would take over if the owner drained): a replica that
// is draining (healthz 503), marked down by the prober, or fails in
// transport is skipped or retried around, so a rolling replica restart
// costs clients nothing but a failover hop. 429s pass through — load
// shedding is the replica's answer, not a routing failure.
//
// Endpoints: POST /v1/plan and POST /v1/estimate (proxied),
// GET /v1/healthz (the gate's cluster view: per-replica up / draining
// / down), /metrics and /debug/pprof from the shared obs mux,
// GET /debug/traces (gate-level request traces, stitched above the
// replicas' own), and GET /debug/slo (gate-level burn rates — the
// user-facing SLO, measured in front of the whole fleet).
//
// Exit status: 0 on clean shutdown, 1 on serve failure, 2 on usage
// errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// version is the build stamp reported by /v1/healthz; override with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/csgate
var version = "dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Replica health states, as the prober and the forwarding path see
// them. Transitions are monotone within a probe interval: forwarding
// only ever degrades a replica (up -> draining/down); the prober is
// what promotes it back.
const (
	stateUp int32 = iota
	stateDraining
	stateDown
)

func stateName(s int32) string {
	switch s {
	case stateUp:
		return "up"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// replica is one backend's identity plus its last observed health.
type replica struct {
	url    string
	state  atomic.Int32
	up     *obs.Gauge
	routed *obs.Counter
}

// gate is the routing core: the ring, the replica table, and the
// forwarding client.
type gate struct {
	ring     *cluster.Ring
	replicas map[string]*replica
	client   *http.Client
	retries  int

	start    time.Time
	draining atomic.Bool

	failover  *obs.Counter
	exhausted *obs.Counter
}

func newGate(urls []string, retries int, clientTimeout time.Duration, reg *obs.Registry) *gate {
	g := &gate{
		ring:     cluster.NewRing(urls),
		replicas: make(map[string]*replica, len(urls)),
		client:   &http.Client{Timeout: clientTimeout},
		retries:  retries,
		start:    time.Now(),
		failover: reg.Counter("cs_gate_failover_total",
			"requests re-routed past a draining, down, or failing replica"),
		exhausted: reg.Counter("cs_gate_exhausted_total",
			"requests that failed on every candidate replica (answered 502)"),
	}
	for _, u := range g.ring.Nodes() {
		rep := &replica{
			url: u,
			up: reg.Gauge(obs.Labeled("cs_gate_replica_up", "replica", u),
				"replica health as the prober sees it (1 up, 0.5 draining, 0 down)"),
			routed: reg.Counter(obs.Labeled("cs_gate_routed_total", "replica", u),
				"requests forwarded to this replica"),
		}
		rep.up.Set(1)
		g.replicas[u] = rep
	}
	return g
}

// httpError mirrors the replicas' JSON error payload.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// proxy returns the handler that routes one endpoint. It buffers the
// request body (needed for both key derivation and replay on
// failover), then walks the key's candidate replicas — healthy ones in
// preference order first, unhealthy ones after as a last resort in
// case the prober's view is stale.
func (g *gate) proxy(route, path string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, httpError{Error: "gate is draining"})
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, httpError{Error: "bad request body: " + err.Error()})
			return
		}
		// Route by the canonical cache key the replica will compute,
		// so the ring and the replica caches agree on key identity. A
		// body the replica will reject still routes deterministically,
		// by its raw bytes, and lets the owner produce the real 4xx.
		key, err := serve.RequestKey(route, body)
		if err != nil {
			key = string(body)
		}
		rt := obs.ReqTraceFrom(r.Context())

		var healthy, unhealthy []*replica
		for _, u := range g.ring.Owners(key, g.ring.Len()) {
			rep := g.replicas[u]
			if rep.state.Load() == stateUp {
				healthy = append(healthy, rep)
			} else {
				unhealthy = append(unhealthy, rep)
			}
		}
		candidates := append(healthy, unhealthy...)
		attempts := g.retries + 1
		if attempts > len(candidates) {
			attempts = len(candidates)
		}
		for i := 0; i < attempts; i++ {
			if i > 0 {
				g.failover.Inc()
			}
			if g.forward(w, r, candidates[i], path, body, rt) {
				return
			}
			if r.Context().Err() != nil {
				break // client gone: stop burning replicas
			}
		}
		g.exhausted.Inc()
		writeJSON(w, http.StatusBadGateway, httpError{Error: "no replica could serve the request"})
	})
}

// forward sends the buffered body to rep and, on success, streams the
// response back. It returns false — without having written anything —
// when the attempt should fail over: transport error (replica marked
// down) or 503 (replica draining / pool closed; marked draining). A
// 429 is a real answer: shedding passes through to the client.
func (g *gate) forward(w http.ResponseWriter, r *http.Request, rep *replica, path string, body []byte, rt *obs.ReqTrace) bool {
	endProxy := rt.StartPhase("proxy")
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		endProxy("replica", rep.url, "outcome", "error")
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if tc := rt.Context(); tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		rep.state.Store(stateDown)
		rep.up.Set(0)
		endProxy("replica", rep.url, "outcome", "down")
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		rep.state.Store(stateDraining)
		rep.up.Set(0.5)
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		endProxy("replica", rep.url, "outcome", "draining")
		return false
	}
	rep.routed.Inc()
	rt.Annotate("replica", rep.url)
	h := w.Header()
	h.Set("X-CS-Replica", rep.url)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		h.Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	endProxy("replica", rep.url, "outcome", "ok")
	return true
}

// probeOnce sweeps every replica's /v1/healthz concurrently: 200 is
// up, 503 is draining (csserve answers it from BeginDrain to pool
// close), anything else — including transport failure — is down.
func (g *gate) probeOnce(ctx context.Context, timeout time.Duration) {
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url+"/v1/healthz", nil)
			if err != nil {
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				rep.state.Store(stateDown)
				rep.up.Set(0)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			switch resp.StatusCode {
			case http.StatusOK:
				rep.state.Store(stateUp)
				rep.up.Set(1)
			case http.StatusServiceUnavailable:
				rep.state.Store(stateDraining)
				rep.up.Set(0.5)
			default:
				rep.state.Store(stateDown)
				rep.up.Set(0)
			}
		}(rep)
	}
	wg.Wait()
}

// ReplicaHealth is one backend's row in the gate healthz payload.
type ReplicaHealth struct {
	URL   string `json:"url"`
	State string `json:"state"`
}

// Healthz is the gate's cluster view.
type Healthz struct {
	Status        string          `json:"status"`
	Version       string          `json:"version"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	RingSize      int             `json:"ring_size"`
	Up            int             `json:"up"`
	Replicas      []ReplicaHealth `json:"replicas"`
}

func (g *gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{
		Version:       version,
		UptimeSeconds: time.Since(g.start).Seconds(),
		RingSize:      g.ring.Len(),
	}
	for _, u := range g.ring.Nodes() {
		st := g.replicas[u].state.Load()
		if st == stateUp {
			h.Up++
		}
		h.Replicas = append(h.Replicas, ReplicaHealth{URL: u, State: stateName(st)})
	}
	status := http.StatusOK
	switch {
	case g.draining.Load():
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case h.Up == 0:
		h.Status = "unavailable"
		status = http.StatusServiceUnavailable
	case h.Up < h.RingSize:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	writeJSON(w, status, h)
}

func run(argv []string, stdout, stderr io.Writer) int {
	return runApp(argv, stdout, stderr, nil, nil)
}

// runApp is run with test hooks: when ready is non-nil it receives the
// bound listen address once serving, and a receive on stop triggers
// the same graceful drain as SIGTERM.
func runApp(argv []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("csgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8090", "listen address (use :0 for an ephemeral port)")
		replicas = fs.String("replicas", "", "comma-separated base URLs of the csserve replicas (required)")
		probe    = fs.Duration("probe", 500*time.Millisecond, "replica health-probe interval (negative disables the prober)")
		retries  = fs.Int("retries", -1, "failed-replica retry hops per request (-1 = try every candidate)")
		timeout  = fs.Duration("timeout", 5*time.Minute, "outbound request timeout (covers a cold Monte-Carlo estimate)")
		grace    = fs.Duration("grace", 15*time.Second, "shutdown grace period for in-flight requests")

		traceStore   = fs.Int("trace-store", 2048, "request trace store capacity in records (negative disables tracing)")
		traceSample  = fs.Float64("trace-sample", 0.1, "probability of keeping an unremarkable request's trace")
		traceSlowest = fs.Int("trace-slowest", 8, "always keep the slowest N requests per -trace-window")
		traceWindow  = fs.Duration("trace-window", 10*time.Second, "comparison window for -trace-slowest")

		sloTarget        = fs.Float64("slo-target", 0.999, "availability objective: target fraction of non-5xx responses")
		sloLatencyMS     = fs.Float64("slo-latency-ms", 250, "latency SLI threshold in milliseconds")
		sloLatencyTarget = fs.Float64("slo-latency-target", 0.99, "latency objective: target fraction of served responses under -slo-latency-ms")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "csgate: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "csgate: -replicas is required (comma-separated base URLs)")
		return 2
	}

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceStore >= 0 {
		tracer = obs.NewTracer(obs.TracerConfig{
			Capacity:   *traceStore,
			SampleRate: *traceSample,
			SlowestK:   *traceSlowest,
			Window:     *traceWindow,
		})
	}
	slo := obs.NewSLOTracker(obs.SLOConfig{
		AvailabilityObjective: *sloTarget,
		LatencyObjective:      *sloLatencyTarget,
		LatencyThresholdMS:    *sloLatencyMS,
	})
	nRetries := *retries
	if nRetries < 0 {
		nRetries = len(urls) - 1
	}
	g := newGate(urls, nRetries, *timeout, reg)

	mux := obs.NewMux(reg)
	mux.Handle("POST /v1/plan", obs.InstrumentHandler(reg, "plan", tracer, slo, g.proxy("plan", "/v1/plan")))
	mux.Handle("POST /v1/estimate", obs.InstrumentHandler(reg, "estimate", tracer, slo, g.proxy("estimate", "/v1/estimate")))
	mux.Handle("GET /v1/healthz", obs.InstrumentHandler(reg, "healthz", tracer, nil, http.HandlerFunc(g.handleHealthz)))
	if tracer != nil {
		mux.Handle("GET /debug/traces", tracer)
	}
	mux.Handle("GET /debug/slo", slo)
	srv := &http.Server{Handler: mux}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "csgate:", err)
		return 1
	}
	fmt.Fprintf(stderr, "csgate: listening on %s, routing %d replicas\n", lis.Addr(), len(urls))
	if ready != nil {
		ready <- lis.Addr().String()
	}

	probeCtx, cancelProbe := context.WithCancel(context.Background())
	defer cancelProbe()
	if *probe > 0 {
		go func() {
			ticker := time.NewTicker(*probe)
			defer ticker.Stop()
			g.probeOnce(probeCtx, *probe)
			for {
				select {
				case <-ticker.C:
					g.probeOnce(probeCtx, *probe)
				case <-probeCtx.Done():
					return
				}
			}
		}()
	}

	termCtx, cancelTerm := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancelTerm()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "csgate:", err)
		return 1
	case <-termCtx.Done():
	case <-stop: // nil when not under test: blocks forever
	}

	fmt.Fprintln(stderr, "csgate: draining")
	g.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "csgate: shutdown:", err)
		code = 1
	}
	fmt.Fprintln(stdout, "csgate: drained")
	return code
}
