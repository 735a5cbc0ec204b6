// Command csserve is the long-running planning and estimation service:
// the paper's guideline schedule (system 3.6) and Monte-Carlo E(S;p)
// estimates behind an HTTP/JSON API, built to survive production
// traffic — sharded LRU plan cache, request coalescing, and a bounded
// admission queue that sheds load with 429 instead of queueing
// unboundedly.
//
// Usage:
//
//	csserve                              # listen on :8080
//	csserve -addr :9000 -workers 8 -queue 128
//	csserve -plan-cache 8192 -est-cache 1024
//	csserve -timeout 5s -max-timeout 30s -max-episodes 1000000
//	csserve -trace-store 4096 -trace-sample 0.5
//	csserve -runtime-sample 10s
//	csserve -slo-target 0.999 -slo-latency-ms 250 -slo-latency-target 0.99
//	csserve -self http://h1:8080 -peers http://h2:8080,http://h3:8080
//	                                     # join a cluster (see csgate)
//
// Endpoints: POST /v1/plan, POST /v1/estimate, GET /v1/healthz, plus
// /metrics and /debug/pprof from the shared obs mux, and
// GET /debug/traces — the tail-sampled request trace store (always
// keeps errors and the 8 slowest requests of each 10 s window; keeps
// the rest with probability -trace-sample). Requests carry W3C
// traceparent in, X-Trace-Id and Server-Timing out.
//
// Runtime observability: the runtime/metrics bridge samples GC pause
// quantiles, heap residency, allocation throughput, scheduler latency
// and the goroutine population into /metrics every -runtime-sample;
// GET /debug/slo reports rolling-window error and latency burn rates
// against the -slo-* objectives; the standard delta profiles
// GET /debug/pprof/allocs?seconds=N and /debug/pprof/heap?seconds=N
// show where allocations and live-heap growth came from over the last
// N seconds, with no restart.
//
// Clustering: with -self and -peers the replica joins a consistent-
// hash cluster (fronted by csgate). It mounts the peer protocol
// (GET /v1/peer/cache/{key}, POST /v1/peer/warm, GET /v1/peer/hot),
// fills a cache miss by pulling the key from its previous holder
// before computing (steal fill), pulls peers' hot entries for its own
// arc at startup, and hands its hottest entries to their next owners
// before exiting — a rolling restart keeps the cluster's working set
// warm instead of recomputing it.
//
// SIGTERM or SIGINT drains gracefully: healthz flips to 503 first (so
// the csgate prober routes around this replica), the hot working set
// is handed to peers, then the listener stops accepting, in-flight
// requests get -grace to finish, and the pool waits for every admitted
// computation.
//
// Exit status: 0 on clean shutdown, 1 on serve failure, 2 on usage
// errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// version is the build stamp reported by /v1/healthz; override with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/csserve
var version = "dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	return runApp(argv, stdout, stderr, nil, nil)
}

// runApp is run with test hooks: when ready is non-nil it receives the
// bound listen address once serving, and a receive on stop triggers the
// same graceful drain as SIGTERM.
func runApp(argv []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("csserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		workers     = fs.Int("workers", 0, "computations run at once (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 64, "computations that may wait for a -workers slot (0 = default 64, negative = admit only while a slot is free); full queue answers 429")
		planCache   = fs.Int("plan-cache", 4096, "plan LRU cache entries (0 = default, negative disables)")
		estCache    = fs.Int("est-cache", 512, "estimate LRU cache entries (0 = default, negative disables)")
		timeout     = fs.Duration("timeout", 10*time.Second, "default per-request compute deadline")
		maxTimeout  = fs.Duration("max-timeout", 60*time.Second, "ceiling on client-requested timeout_ms")
		maxEpisodes = fs.Int("max-episodes", 2_000_000, "ceiling on episodes per /v1/estimate request")
		grace       = fs.Duration("grace", 15*time.Second, "shutdown grace period for in-flight requests")

		traceStore  = fs.Int("trace-store", 2048, "request trace store capacity in records (negative disables tracing)")
		traceSample = fs.Float64("trace-sample", 0.1, "probability of keeping an unremarkable request's trace (errors and the slowest are always kept; negative keeps none)")

		runtimeSample = fs.Duration("runtime-sample", 10*time.Second, "runtime/metrics bridge sampling interval (negative disables the bridge)")

		sloTarget        = fs.Float64("slo-target", 0.999, "availability objective: target fraction of non-5xx responses")
		sloLatencyMS     = fs.Float64("slo-latency-ms", 250, "latency SLI threshold in milliseconds")
		sloLatencyTarget = fs.Float64("slo-latency-target", 0.99, "latency objective: target fraction of served responses under -slo-latency-ms")

		self  = fs.String("self", "", "this replica's own base URL in the cluster ring (enables clustering with -peers)")
		peers = fs.String("peers", "", "comma-separated base URLs of the other replicas")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "csserve: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceStore >= 0 {
		tracer = obs.NewTracer(obs.TracerConfig{
			Capacity:   *traceStore,
			SampleRate: *traceSample,
		})
	}
	slo := obs.NewSLOTracker(obs.SLOConfig{
		AvailabilityObjective: *sloTarget,
		LatencyObjective:      *sloLatencyTarget,
		LatencyThresholdMS:    *sloLatencyMS,
	})
	var bridge *obs.RuntimeBridge
	if *runtimeSample >= 0 {
		bridge = obs.NewRuntimeBridge(reg, obs.RuntimeBridgeConfig{Interval: *runtimeSample})
		bridge.Start()
		defer bridge.Stop()
	}
	s := serve.New(serve.Config{
		Workers:              *workers,
		Queue:                *queue,
		PlanCacheEntries:     *planCache,
		EstimateCacheEntries: *estCache,
		DefaultTimeout:       *timeout,
		MaxTimeout:           *maxTimeout,
		MaxEpisodes:          *maxEpisodes,
		Registry:             reg,
		Tracer:               tracer,
		SLO:                  slo,
		Runtime:              bridge,
		Version:              version,
	})

	var node *cluster.Node
	if *self != "" || *peers != "" {
		if *self == "" {
			fmt.Fprintln(stderr, "csserve: -peers requires -self (this replica's own URL in the ring)")
			return 2
		}
		var peerURLs []string
		for _, u := range strings.Split(*peers, ",") {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u != "" {
				peerURLs = append(peerURLs, u)
			}
		}
		var err error
		node, err = cluster.NewNode(cluster.Config{
			Self:     strings.TrimSuffix(*self, "/"),
			Peers:    peerURLs,
			Registry: reg,
		}, s)
		if err != nil {
			fmt.Fprintln(stderr, "csserve:", err)
			return 2
		}
		s.SetPeers(node)
	}

	mux := obs.NewMux(reg)
	s.Routes(mux)
	if node != nil {
		node.Routes(mux)
	}
	if tracer != nil {
		mux.Handle("GET /debug/traces", tracer)
	}
	mux.Handle("GET /debug/slo", slo)
	srv := &http.Server{Handler: mux}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "csserve:", err)
		return 1
	}
	fmt.Fprintf(stderr, "csserve: listening on %s\n", lis.Addr())

	// Warm start before announcing readiness: pull the peers' hot lists
	// and install the entries this replica owns, so the first wave after
	// a restart is served from cache instead of recomputed. Bounded by
	// the per-attempt peer timeout; peers that are down cost one timeout
	// each and nothing more.
	if node != nil {
		warmCtx, cancelWarm := context.WithTimeout(context.Background(), 10*time.Second)
		if n := node.WarmStart(warmCtx); n > 0 {
			fmt.Fprintf(stderr, "csserve: warm start installed %d entries from peers\n", n)
		}
		cancelWarm()
	}
	if ready != nil {
		ready <- lis.Addr().String()
	}

	// SIGTERM/SIGINT (or the test stop hook) start the graceful drain.
	termCtx, cancelTerm := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancelTerm()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "csserve:", err)
		return 1
	case <-termCtx.Done():
	case <-stop: // nil when not under test: blocks forever
	}

	fmt.Fprintln(stderr, "csserve: draining")
	// Drain order matters in a cluster: flip healthz to 503 first so
	// the gate prober routes new traffic around this replica, then hand
	// the hot working set to the keys' next owners while the listener
	// still serves in-flight requests, and only then stop accepting.
	s.BeginDrain()
	if node != nil {
		handoffCtx, cancelHandoff := context.WithTimeout(context.Background(), *grace)
		if n := node.Handoff(handoffCtx); n > 0 {
			fmt.Fprintf(stderr, "csserve: handed %d hot entries to peers\n", n)
		}
		cancelHandoff()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "csserve: shutdown:", err)
		code = 1
	}
	s.Drain()
	fmt.Fprintln(stdout, "csserve: drained")
	return code
}
