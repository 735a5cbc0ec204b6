package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// seqHeader carries the client's request sequence number in traced
// runs. The benchmark's span middleware strips it before the serving
// stack sees the request.
const seqHeader = "X-Perfbench-Seq"

// replica is one in-process csserve: the server, its cluster node (nil
// outside a cluster) and its loopback listener.
type replica struct {
	base   string
	reg    *obs.Registry
	srv    *serve.Server
	node   *cluster.Node
	bridge *obs.RuntimeBridge
	http   *http.Server
	done   chan error
}

// stack is the set of replicas a workload drives, plus the traced run's
// recorders.
type stack struct {
	replicas []*replica
	spans    *spanLog     // nil when untraced
	peerGets *peerCounter // nil when untraced or single replica
	peerHTTP *http.Client // the replicas' peer client
}

// newReplicaServer builds a serve.Server as csserve does with its default
// flags (trace store, SLO tracker and runtime bridge on, flight recorder
// off) but with the given cache sizes.
func newReplicaServer(caches cacheSizes) (*serve.Server, *obs.Registry, *obs.Tracer, *obs.SLOTracker, *obs.RuntimeBridge) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(csserveTracerConfig)
	slo := obs.NewSLOTracker(csserveSLOConfig)
	bridge := obs.NewRuntimeBridge(reg, obs.RuntimeBridgeConfig{Interval: 10 * time.Second})
	srv := serve.New(serve.Config{
		Queue:                64,
		PlanCacheEntries:     caches.plan,
		EstimateCacheEntries: caches.estimate,
		CacheShards:          16,
		DefaultTimeout:       10 * time.Second,
		MaxTimeout:           60 * time.Second,
		MaxEpisodes:          2_000_000,
		Registry:             reg,
		Tracer:               tracer,
		SLO:                  slo,
		Runtime:              bridge,
		Version:              "perfbench",
	})
	return srv, reg, tracer, slo, bridge
}

// csserve's default -trace-* and -slo-* flag values.
var (
	csserveTracerConfig = obs.TracerConfig{Capacity: 2048, SampleRate: 0.1, SlowestK: 8, Window: 10 * time.Second}
	csserveSLOConfig    = obs.SLOConfig{AvailabilityObjective: 0.999, LatencyObjective: 0.99, LatencyThresholdMS: 250}
)

// startStack starts n replicas on loopback listeners. With n > 1 they
// form a cluster with csserve's default steal fill. traced wraps each
// replica's mux in the span middleware and counts peer GET bytes.
func startStack(n int, caches cacheSizes, traced bool) (*stack, error) {
	st := &stack{}
	if traced {
		st.spans = newSpanLog()
	}
	listeners := make([]net.Listener, n)
	bases := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = lis
		bases[i] = "http://" + lis.Addr().String()
	}
	if n > 1 {
		// csserve leaves the peer client at http.DefaultClient; a
		// private clone of its transport keeps runs independent.
		var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
		if traced {
			st.peerGets = &peerCounter{next: rt}
			rt = st.peerGets
		}
		st.peerHTTP = &http.Client{Transport: rt}
	}
	for i := range listeners {
		srv, reg, tracer, slo, bridge := newReplicaServer(caches)
		bridge.Start()
		rep := &replica{base: bases[i], reg: reg, srv: srv, bridge: bridge, done: make(chan error, 1)}
		mux := obs.NewMux(reg)
		srv.Routes(mux)
		if n > 1 {
			node, err := cluster.NewNode(cluster.Config{
				Self:        bases[i],
				Peers:       bases,
				Fill:        cluster.FillSteal,
				Timeout:     250 * time.Millisecond,
				Concurrency: 8,
				HotN:        128,
				Registry:    reg,
				Client:      st.peerHTTP,
			}, srv)
			if err != nil {
				bridge.Stop()
				st.stop()
				for _, l := range listeners[i:] {
					l.Close()
				}
				return nil, err
			}
			rep.node = node
			srv.SetPeers(node)
			node.Routes(mux)
		}
		mux.Handle("GET /debug/traces", tracer)
		mux.Handle("GET /debug/slo", slo)
		var h http.Handler = mux
		if traced {
			h = st.spans.wrap(mux)
		}
		rep.http = &http.Server{Handler: h}
		go func(lis net.Listener) { rep.done <- rep.http.Serve(lis) }(listeners[i])
		st.replicas = append(st.replicas, rep)
	}
	// csserve pulls its peers' hot entries before it reports ready.
	for _, r := range st.replicas {
		if r.node != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			r.node.WarmStart(ctx)
			cancel()
		}
	}
	return st, nil
}

func (st *stack) bases() []string {
	out := make([]string, len(st.replicas))
	for i, r := range st.replicas {
		out[i] = r.base
	}
	return out
}

// stop drains every replica the way csserve's shutdown does and waits
// for each serve loop to end.
func (st *stack) stop() {
	for _, r := range st.replicas {
		r.srv.BeginDrain()
	}
	for _, r := range st.replicas {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		_ = r.http.Shutdown(ctx) // a replica that misses the grace period is torn down below
		cancel()
		<-r.done
		r.srv.Drain()
		if r.node != nil {
			r.node.Close()
		}
		r.bridge.Stop()
	}
	if st.peerHTTP != nil {
		st.peerHTTP.CloseIdleConnections()
	}
}

// counterSeries are the counters the per-layer ledger reads.
var counterSeries = []string{
	obs.Labeled("cs_serve_cache_hits_total", "route", "plan"),
	obs.Labeled("cs_serve_cache_misses_total", "route", "plan"),
	obs.Labeled("cs_serve_cache_evictions_total", "route", "plan"),
	obs.Labeled("cs_serve_cache_hits_total", "route", "estimate"),
	obs.Labeled("cs_serve_cache_misses_total", "route", "estimate"),
	obs.Labeled("cs_serve_cache_evictions_total", "route", "estimate"),
	"cs_serve_coalesced_total",
	obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "hit"),
	obs.Labeled("cs_cluster_peer_fetch_total", "outcome", "miss"),
}

// counters reads counterSeries, each summed over the replicas.
func (st *stack) counters() map[string]uint64 {
	out := make(map[string]uint64, len(counterSeries))
	for _, name := range counterSeries {
		for _, r := range st.replicas {
			out[name] += r.reg.Counter(name, "").Value()
		}
	}
	return out
}

// spanLog records the benchmark-owned middleware span around each
// replica's mux.ServeHTTP, keyed by the client's sequence number.
type spanLog struct {
	mu    sync.Mutex
	spans map[int]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{spans: make(map[int]time.Duration)} }

func (l *spanLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		r.Header.Del(seqHeader)
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		if err == nil {
			l.mu.Lock()
			l.spans[seq] = d
			l.mu.Unlock()
		}
	})
}

func (l *spanLog) get(seq int) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.spans[seq]
	return d, ok
}

// peerCounter counts the replicas' peer cache GETs that hit and the
// bytes their bodies carried.
type peerCounter struct {
	next  http.RoundTripper
	hits  atomic.Int64
	bytes atomic.Int64
}

func (p *peerCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.next.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	p.hits.Add(1)
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &p.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// describe names a replica set for log lines.
func (st *stack) describe() string {
	if len(st.replicas) == 1 {
		return "1 replica"
	}
	return fmt.Sprintf("%d replicas, fill %s", len(st.replicas), cluster.FillSteal)
}
