package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config tunes a Server. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// Workers is the number of computations that run at once (default
	// GOMAXPROCS).
	Workers int
	// Queue is how many more computations may wait for one of the
	// Workers slots. 0 selects the default of 64; a negative value
	// admits a computation only while a slot is free. A full queue
	// answers 429 immediately.
	Queue int
	// PlanCacheEntries / EstimateCacheEntries size the two LRU caches
	// (defaults 4096 and 512; negative disables a cache).
	PlanCacheEntries     int
	EstimateCacheEntries int
	// CacheShards is the shard count of each cache (default 16).
	CacheShards int
	// DefaultTimeout bounds a request that names no timeout_ms
	// (default 10s); MaxTimeout clamps what a request may ask for
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxEpisodes caps /v1/estimate episode counts (default 2e6,
	// hard-capped at MaxEpisodesLimit).
	MaxEpisodes int
	// Registry receives all metrics; a private one is created when nil.
	Registry *obs.Registry
	// Tracer, when non-nil, receives every request's finalized trace
	// for tail sampling; serve /debug/traces from it to inspect the
	// kept ones. Nil disables the store (requests still carry trace
	// headers and per-phase attribution).
	Tracer *obs.Tracer
	// SLO, when non-nil, receives every plan/estimate outcome for
	// rolling-window burn-rate tracking (healthz probes are excluded —
	// they are not user traffic). Serve /debug/slo from it.
	SLO *obs.SLOTracker
	// Runtime, when non-nil, is the runtime/metrics bridge whose
	// goroutine-leak watchdog verdict /v1/healthz reports. The bridge's
	// own lifecycle (Start/Stop) belongs to the caller.
	Runtime *obs.RuntimeBridge
	// Version is reported by /v1/healthz (build stamp; "dev" when empty).
	Version string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 4096
	}
	if c.EstimateCacheEntries == 0 {
		c.EstimateCacheEntries = 512
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxEpisodes <= 0 || c.MaxEpisodes > MaxEpisodesLimit {
		c.MaxEpisodes = 2_000_000
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// Server answers plan and estimate queries behind the cache /
// coalescing / admission-pool stack. Create with New, mount with Routes,
// stop with Drain.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	pool     *Pool
	flights  *flightGroup
	plan     *route[PlanSpec, PlanResponse, *PlanResponse]
	estimate *route[EstimateSpec, EstimateResponse, *EstimateResponse]

	// peers is the cluster fill hook (SetPeers); nil outside a cluster.
	peers PeerFiller

	start    time.Time
	draining atomic.Bool

	coalesced  *obs.Counter
	rejected   *obs.Counter
	cancelled  *obs.Counter
	planErrors *obs.Counter
	episodes   *obs.Counter
	peerFilled *obs.Counter
	peerMissed *obs.Counter
}

// New builds a Server from cfg and registers its metric set on the
// registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	cacheCounters := func(route string) CacheMetrics {
		return CacheMetrics{
			Hits:      reg.Counter(obs.Labeled("cs_serve_cache_hits_total", "route", route), "responses served from the spec-keyed LRU cache"),
			Misses:    reg.Counter(obs.Labeled("cs_serve_cache_misses_total", "route", route), "requests that had to compute"),
			Evictions: reg.Counter(obs.Labeled("cs_serve_cache_evictions_total", "route", route), "LRU entries displaced by new ones"),
		}
	}
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		flights:   newFlightGroup(),
		start:     time.Now(),
		coalesced: reg.Counter("cs_serve_coalesced_total", "requests that shared another request's in-flight computation"),
		rejected:  reg.Counter("cs_serve_rejected_total", "requests shed with 429 because the worker queue was full"),
		cancelled: reg.Counter("cs_serve_cancelled_total", "requests abandoned by deadline or client disconnect"),
		planErrors: reg.Counter("cs_serve_compute_errors_total",
			"requests whose planning or simulation failed (unplannable life function, ...)"),
		episodes:   reg.Counter("cs_serve_episodes_simulated_total", "Monte-Carlo episodes run on behalf of /v1/estimate"),
		peerFilled: reg.Counter(obs.Labeled("cs_serve_peer_fill_total", "outcome", "hit"), "cache misses satisfied by a cluster peer instead of local compute"),
		peerMissed: reg.Counter(obs.Labeled("cs_serve_peer_fill_total", "outcome", "miss"), "cache misses no cluster peer could satisfy"),
	}
	s.plan = &route[PlanSpec, PlanResponse, *PlanResponse]{
		srv:       s,
		cache:     NewCache(cfg.PlanCacheEntries, cfg.CacheShards, cacheCounters("plan")),
		normalize: PlanSpec.normalize,
		compute:   computePlan,
	}
	s.estimate = &route[EstimateSpec, EstimateResponse, *EstimateResponse]{
		srv:   s,
		cache: NewCache(cfg.EstimateCacheEntries, cfg.CacheShards, cacheCounters("estimate")),
		normalize: func(spec EstimateSpec) (EstimateSpec, error) {
			return spec.normalize(cfg.MaxEpisodes)
		},
		compute: s.computeEstimate,
	}
	s.pool = NewPool(cfg.Workers, cfg.Queue,
		reg.Gauge("cs_serve_queue_depth", "requests waiting for or holding a pool slot"),
		reg.Counter("cs_serve_pool_skipped_total", "queued tasks skipped because their request had already been abandoned"),
		reg.Quantiles("cs_serve_queue_wait_ms", "pool queue wait in milliseconds (admission to slot)"))
	return s
}

// Registry returns the registry the server publishes to.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Routes mounts the service endpoints on mux. Each route is wrapped in
// the obs latency/status middleware.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.Handle("POST /v1/plan", obs.InstrumentHandler(s.reg, "plan", s.cfg.Tracer, s.cfg.SLO, s.plan))
	mux.Handle("POST /v1/estimate", obs.InstrumentHandler(s.reg, "estimate", s.cfg.Tracer, s.cfg.SLO, s.estimate))
	mux.Handle("GET /v1/healthz", obs.InstrumentHandler(s.reg, "healthz", s.cfg.Tracer, nil, http.HandlerFunc(s.handleHealthz)))
}

// BeginDrain flips only the draining flag: /v1/healthz starts
// answering 503 so load balancers (the csgate prober) route around
// this replica, while in-flight requests and peer-protocol traffic
// keep being served. Call at the top of a graceful shutdown; Drain
// closes the pool once the HTTP layer is done.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain flips the server into draining mode (healthz answers 503 so
// load balancers stop sending traffic) and, once the HTTP layer has
// finished its in-flight handlers, closes the pool. Call after
// http.Server.Shutdown has returned.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.pool.Close()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Band is a confidence band over a Monte-Carlo statistic.
type Band struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	CI95Lo float64 `json:"ci95_lo"`
	CI95Hi float64 `json:"ci95_hi"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int64   `json:"n"`
}

func bandOf(sum stats.Summary) Band {
	return Band{
		Mean:   sum.Mean,
		StdErr: sum.StdErr,
		CI95Lo: sum.Mean - sum.CI95,
		CI95Hi: sum.Mean + sum.CI95,
		Min:    sum.Min,
		Max:    sum.Max,
		N:      sum.N,
	}
}

// maxPeriodsReturned caps the schedule prefix included in a plan
// response; the full length travels in periods_total.
const maxPeriodsReturned = 128

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	Key           string     `json:"key"`
	Life          string     `json:"life"`
	C             float64    `json:"c"`
	T0            float64    `json:"t0"`
	Bracket       [2]float64 `json:"bracket"`
	Periods       []float64  `json:"periods"`
	PeriodsTotal  int        `json:"periods_total"`
	TotalDuration float64    `json:"total_duration"`
	ExpectedWork  float64    `json:"expected_work"`
	Evaluations   int        `json:"evaluations"`
	Served
}

// EstimateResponse is the body of a successful POST /v1/estimate.
type EstimateResponse struct {
	Key               string  `json:"key"`
	Life              string  `json:"life"`
	C                 float64 `json:"c"`
	Policy            string  `json:"policy"`
	Episodes          int64   `json:"episodes"`
	Seed              uint64  `json:"seed"`
	Work              Band    `json:"work"`
	Lost              Band    `json:"lost"`
	Periods           Band    `json:"periods"`
	ReclaimedFraction float64 `json:"reclaimed_fraction"`
	// AnalyticE is E(S; p) from the planner when the policy is
	// guideline — the model-vs-simulation comparison in one response.
	AnalyticE *float64 `json:"analytic_expected_work,omitempty"`
	Served
}

// Served describes how one response was produced. It is stamped per
// response, trails every body, and is zero in every cache entry and
// every payload that crosses the peer wire. A "fresh" computation is
// one where all three flags are false.
type Served struct {
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	// PeerFilled marks a miss satisfied by a cluster peer's cache
	// instead of local compute.
	PeerFilled bool `json:"peer_filled"`
	// ElapsedMS is the server-side time spent producing this response —
	// for a cache hit, the lookup; for a miss, queueing plus compute.
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Served) served() *Served { return s }

// The check methods vet a response decoded from a peer's JSON for key.
// Decoding is the finiteness check: JSON has no NaN or Inf, and
// json.Unmarshal refuses a number that overflows float64.

// check requires the schedule prefix the planner returns, productive
// periods and 0 < E(S;p) <= total duration.
func (p *PlanResponse) check(key string) error {
	if p.Key != key {
		return fmt.Errorf("key mismatch: %q vs %q", p.Key, key)
	}
	if len(p.Periods) != min(p.PeriodsTotal, maxPeriodsReturned) {
		return fmt.Errorf("%d periods for periods_total %d", len(p.Periods), p.PeriodsTotal)
	}
	for _, t := range p.Periods {
		if !(t > p.C) {
			return fmt.Errorf("unproductive period %g <= c = %g", t, p.C)
		}
	}
	if !(p.ExpectedWork > 0 && p.ExpectedWork <= p.TotalDuration) {
		return fmt.Errorf("expected work %g outside (0, %g]", p.ExpectedWork, p.TotalDuration)
	}
	return nil
}

// check requires bands over work.n == episodes >= 2 episodes and a
// reclaimed fraction in [0, 1].
func (e *EstimateResponse) check(key string) error {
	if e.Key != key {
		return fmt.Errorf("key mismatch: %q vs %q", e.Key, key)
	}
	if e.Episodes < 2 || e.Work.N != e.Episodes {
		return fmt.Errorf("work.n %d for %d episodes", e.Work.N, e.Episodes)
	}
	if !(e.ReclaimedFraction >= 0 && e.ReclaimedFraction <= 1) {
		return fmt.Errorf("reclaimed fraction %g outside [0, 1]", e.ReclaimedFraction)
	}
	return nil
}

// httpError is a JSON error payload.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, httpError{Error: fmt.Sprintf(format, args...)})
}

// writeComputeError maps a failed computation to a status code. Queue
// rejection and abandonment get distinct codes so clients can tell
// "retry shortly" (429) from "give this request more time" (504).
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "worker queue full, retry shortly")
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.cancelled.Inc()
		writeError(w, http.StatusGatewayTimeout, "request abandoned: %v", err)
	default:
		s.planErrors.Inc()
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// decode reads a request body into v by decodeSpec's rules, rejecting
// bodies over 1 MiB.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	return decodeSpec(r.Body, v)
}

// decodeSpec reads one JSON value into v, rejecting unknown fields and
// anything but whitespace after the value. It is the one body decoder:
// the handlers and RequestKey share it, so a body the gate keys is a
// body the replica answers under that key.
func decodeSpec(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON body")
	}
	return nil
}

// requestCtx derives the per-request deadline context: the spec's
// timeout_ms clamped to MaxTimeout, or DefaultTimeout.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// computePlan runs the guideline planner for a normalized spec.
func computePlan(_ context.Context, spec PlanSpec, key string) (PlanResponse, error) {
	life, err := spec.buildLife()
	if err != nil {
		return PlanResponse{}, err
	}
	pol, err := nowsim.ParsePolicy("guideline", life, spec.C, planOptions())
	if err != nil {
		return PlanResponse{}, err
	}
	plan := *pol.Plan
	return PlanResponse{
		Key:           key,
		Life:          life.String(),
		C:             spec.C,
		T0:            plan.T0,
		Bracket:       [2]float64{plan.Bracket.Lo, plan.Bracket.Hi},
		Periods:       plan.Schedule.Prefix(maxPeriodsReturned).Periods(),
		PeriodsTotal:  plan.Schedule.Len(),
		TotalDuration: plan.Schedule.Total(),
		ExpectedWork:  plan.ExpectedWork,
		Evaluations:   plan.Evaluations,
	}, nil
}

// computeEstimate runs the seeded Monte-Carlo for a normalized spec,
// honouring ctx between episodes.
func (s *Server) computeEstimate(ctx context.Context, spec EstimateSpec, key string) (EstimateResponse, error) {
	life, err := spec.buildLife()
	if err != nil {
		return EstimateResponse{}, err
	}
	pol, err := nowsim.ParsePolicy(spec.Policy, life, spec.C, planOptions())
	if err != nil {
		return EstimateResponse{}, err
	}
	res, err := nowsim.MonteCarloCtx(ctx, pol.Factory(), nowsim.LifeOwner{Life: life}, spec.C, spec.Episodes, spec.Seed, nowsim.Obs{})
	s.episodes.Add(uint64(res.Episodes))
	if err != nil {
		return EstimateResponse{}, err
	}
	resp := EstimateResponse{
		Key:      key,
		Life:     life.String(),
		C:        spec.C,
		Policy:   pol.Name,
		Episodes: res.Episodes,
		Seed:     spec.Seed,
		Work:     bandOf(res.Work),
		Lost:     bandOf(res.Lost),
		Periods:  bandOf(res.Periods),
		// normalize guarantees at least two episodes.
		ReclaimedFraction: float64(res.Reclaimed) / float64(res.Episodes),
	}
	if pol.Plan != nil {
		e := pol.Plan.ExpectedWork
		resp.AnalyticE = &e
	}
	return resp, nil
}

// CacheHealth describes one LRU cache in the healthz payload: total
// residency plus the per-shard breakdown, so shard skew is visible
// from a single curl.
type CacheHealth struct {
	Entries  int   `json:"entries"`
	ShardCap int   `json:"shard_cap"`
	PerShard []int `json:"per_shard,omitempty"`
	MaxShard int   `json:"max_shard"`
}

func cacheHealth(c *Cache) CacheHealth {
	lens := c.ShardLens()
	h := CacheHealth{ShardCap: c.ShardCap(), PerShard: lens}
	for _, n := range lens {
		h.Entries += n
		if n > h.MaxShard {
			h.MaxShard = n
		}
	}
	return h
}

// Healthz is the body of GET /v1/healthz — everything a smoke-test
// failure needs for a first diagnosis in one response: build identity,
// runtime shape, pool state, and per-shard cache occupancy.
type Healthz struct {
	Status           string      `json:"status"`
	Version          string      `json:"version"`
	UptimeSeconds    float64     `json:"uptime_seconds"`
	GoVersion        string      `json:"go_version"`
	NumCPU           int         `json:"num_cpu"`
	NumGoroutine     int         `json:"num_goroutine"`
	Workers          int         `json:"workers"`
	QueueDepth       int         `json:"queue_depth"`
	QueueCapacity    int         `json:"queue_capacity"`
	PlanCacheEntries int         `json:"plan_cache_entries"`
	EstCacheEntries  int         `json:"estimate_cache_entries"`
	PlanCache        CacheHealth `json:"plan_cache"`
	EstCache         CacheHealth `json:"estimate_cache"`
	// Runtime is the GC / heap / goroutine block: cycle count, last and
	// cumulative GC pause, heap residency, and the leak-watchdog verdict.
	Runtime obs.RuntimeHealth `json:"runtime"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{
		Status:           "ok",
		Version:          s.cfg.Version,
		UptimeSeconds:    time.Since(s.start).Seconds(),
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		NumGoroutine:     runtime.NumGoroutine(),
		Workers:          s.cfg.Workers,
		QueueDepth:       s.pool.QueueDepth(),
		QueueCapacity:    s.pool.QueueCap(),
		PlanCacheEntries: s.plan.cache.Len(),
		EstCacheEntries:  s.estimate.cache.Len(),
		PlanCache:        cacheHealth(s.plan.cache),
		EstCache:         cacheHealth(s.estimate.cache),
		Runtime:          obs.ReadRuntimeHealth(),
	}
	h.Runtime.GoroutineLeakSuspected = s.cfg.Runtime.LeakSuspected()
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
