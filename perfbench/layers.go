package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

// layerMetric is one row of the per-layer ledger, with the end-to-end
// metric it should move, on which workload, and where it should not.
type layerMetric struct {
	name, unit, better string
	moves, still       string
}

const (
	movesHot     = "plan_p50_ms, throughput_rps on plan-hot"
	movesServe   = movesHot + "; under 1% of plan-cold"
	movesPool    = "plan_p99_ms on plan-cold and cluster-spread"
	movesCore    = "plan_p50_ms, plan_p99_ms, throughput_rps on plan-cold and cluster-spread"
	movesNowsim  = "throughput_rps, cpu_ms_per_req on cluster-spread"
	movesCluster = "plan_p99_ms, cpu_ms_per_req on cluster-spread"
	validityOnly = "validity only"
)

// closureTolerance bounds closure.gap_ratio on plan-cold and plan-hot:
// the layer self times must add up to the client latency within this
// share.
const closureTolerance = 0.25

var layerMetrics = []layerMetric{
	{"http.transport_p50_ms", "ms", "lower", movesHot, ""},
	{"http.transport_p99_ms", "ms", "lower", movesHot, ""},
	{"obs.middleware_us", "us", "lower", "cpu_ms_per_req on plan-hot", ""},
	{"serve.handler_p50_ms", "ms", "lower", movesServe, ""},
	{"serve.handler_p99_ms", "ms", "lower", movesServe, ""},
	{"serve.decode_us", "us", "lower", movesServe, ""},
	{"serve.canonicalize_us", "us", "lower", movesServe, ""},
	{"serve.key_us", "us", "lower", movesServe, ""},
	{"serve.encode_us", "us", "lower", movesServe, ""},
	{"serve.cache_lookup_us", "us", "lower", movesServe, ""},
	{"serve.cache_hit_ratio.plan", "ratio", "higher", movesServe, ""},
	{"serve.cache_hit_ratio.estimate", "ratio", "higher", movesServe, ""},
	{"serve.cache_evictions", "count", "lower", movesServe, ""},
	{"serve.coalesced_ratio", "ratio", "higher", movesServe, ""},
	{"serve.rejected_429", "count", "lower", movesServe, ""},
	{"serve.timeout_504", "count", "lower", movesServe, ""},
	{"serve.queue_wait_p50_ms", "ms", "lower", movesPool, ""},
	{"serve.queue_wait_p99_ms", "ms", "lower", movesPool, ""},
	{"serve.compute_p50_ms", "ms", "lower", movesPool, ""},
	{"serve.compute_p99_ms", "ms", "lower", movesPool, ""},
	{"core.plan_best_ms.uniform", "ms", "lower", movesCore, "plan-hot"},
	{"core.plan_best_ms.poly", "ms", "lower", movesCore, "plan-hot"},
	{"core.plan_best_ms.geomdec", "ms", "lower", movesCore, "plan-hot"},
	{"core.plan_best_ms.geominc", "ms", "lower", movesCore, "plan-hot"},
	{"core.plan_best_ms.conditional", "ms", "lower", movesCore, "plan-hot"},
	{"core.t0_bracket_us", "us", "lower", movesCore, "plan-hot"},
	{"core.evaluations", "count", "lower", movesCore, "plan-hot"},
	{"core.periods", "count", "lower", movesCore, "plan-hot"},
	{"core.allocs_per_plan", "count", "lower", movesCore, "plan-hot"},
	{"sched.expected_work_us", "us", "lower", movesCore, "plan-hot"},
	{"nowsim.mc_us_per_episode.guideline", "us", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.mc_us_per_episode.fixed", "us", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.mc_us_per_episode.progressive", "us", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.reclaim_sample_ns.uniform", "ns", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.reclaim_sample_ns.poly", "ns", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.reclaim_sample_ns.geomdec", "ns", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.reclaim_sample_ns.geominc", "ns", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.episode_us", "us", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"nowsim.allocs_per_episode", "count", "lower", movesNowsim, "plan-cold, plan-hot"},
	{"cluster.ring_owner_ns", "ns", "lower", movesCluster, "every other workload"},
	{"cluster.peer_fetch_hit_ratio", "ratio", "higher", movesCluster, "every other workload (0: no peers)"},
	{"cluster.peer_fill_p50_ms", "ms", "lower", movesCluster, "every other workload (0: no peers)"},
	{"cluster.peer_get_bytes", "bytes", "lower", movesCluster, "every other workload (0: no peers)"},
	{"cluster.fresh_per_key", "ratio", "lower", movesCluster, "every other workload"},
	{"loadgen.lag_p99_ms", "ms", "lower", validityOnly, ""},
	{"closure.gap_ratio", "ratio", "lower", validityOnly, ""},
}

// phases parses the Server-Timing header serve emits, e.g.
// "cache;dur=0.012;desc=miss, queue;dur=0.4, compute;dur=5.2, total;dur=5.7",
// into phase durations in ms. Parameters other than dur are ignored.
func phases(header string) map[string]float64 {
	out := make(map[string]float64, 4)
	for _, part := range strings.Split(header, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(f, "dur="); ok {
				if d, err := strconv.ParseFloat(v, 64); err == nil {
					out[fields[0]] += d
				}
			}
		}
	}
	return out
}

// servePhases are the Server-Timing phases that tile a request's time
// inside serve; "mc" nests inside compute and "total" spans them all.
var servePhases = []string{"cache", "queue", "coalesce", "compute", "peer"}

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0
// when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(1, int(math.Ceil(q*float64(len(xs)))))-1]
}

// beyond is the number of samples above the q-quantile's rank: a p99 is
// reported only when at least ten samples lie beyond it.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerLedger computes the per-layer metrics of a traced run: joins of
// client outcomes with the middleware spans and Server-Timing phases,
// the stack's counters since before (the start of the measured phase),
// and serialized replays on the run's corpus.
func layerLedger(t *tally, st *stack, before map[string]uint64, cl *client, sample []request) map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	var (
		transport, handler, svc, phaseSum []float64
		queue, compute, peer              []float64
		routes                            = map[string]float64{}
		keys                              = map[string]bool{}
	)
	for _, o := range t.kept {
		if o.status != http.StatusOK {
			continue
		}
		keys[o.key] = true
		span, ok := st.spans.get(o.seq)
		if !ok {
			continue
		}
		h := float64(span) / float64(time.Millisecond)
		handler = append(handler, h)
		transport = append(transport, o.lat-h)
		svc = append(svc, o.lat)
		routes[o.route]++
		ph := phases(o.timing)
		sum := 0.0
		for _, name := range servePhases {
			sum += ph[name]
		}
		phaseSum = append(phaseSum, sum)
		if d, ok := ph["queue"]; ok {
			queue = append(queue, d)
		}
		if d, ok := ph["compute"]; ok {
			compute = append(compute, d)
		}
		if d, ok := ph["peer"]; ok {
			peer = append(peer, d)
		}
	}
	meanTransport, meanSvc, meanPhases := mean(transport), mean(svc), mean(phaseSum)
	m["http.transport_p50_ms"] = quantile(transport, 0.5)
	m["http.transport_p99_ms"] = quantile(transport, 0.99)
	m["serve.handler_p50_ms"] = quantile(handler, 0.5)
	m["serve.handler_p99_ms"] = quantile(handler, 0.99)
	m["serve.queue_wait_p50_ms"] = quantile(queue, 0.5)
	m["serve.queue_wait_p99_ms"] = quantile(queue, 0.99)
	m["serve.compute_p50_ms"] = quantile(compute, 0.5)
	m["serve.compute_p99_ms"] = quantile(compute, 0.99)
	m["cluster.peer_fill_p50_ms"] = quantile(peer, 0.5)

	after := st.counters()
	count := func(name string, labels ...string) float64 {
		series := obs.Labeled(name, labels...)
		return float64(after[series] - before[series])
	}
	for _, route := range []string{"plan", "estimate"} {
		hits := count("cs_serve_cache_hits_total", "route", route)
		m["serve.cache_hit_ratio."+route] = ratio(hits, hits+count("cs_serve_cache_misses_total", "route", route))
		m["serve.cache_evictions"] += count("cs_serve_cache_evictions_total", "route", route)
	}
	m["serve.coalesced_ratio"] = ratio(count("cs_serve_coalesced_total"), float64(t.ok))
	m["serve.rejected_429"] = float64(t.statuses[http.StatusTooManyRequests])
	m["serve.timeout_504"] = float64(t.statuses[http.StatusGatewayTimeout])
	hit := count("cs_cluster_peer_fetch_total", "outcome", "hit")
	m["cluster.peer_fetch_hit_ratio"] = ratio(hit, hit+count("cs_cluster_peer_fetch_total", "outcome", "miss"))
	if st.peerGets != nil {
		m["cluster.peer_get_bytes"] = ratio(float64(st.peerGets.bytes.Load()), float64(st.peerGets.hits.Load()))
	}
	m["cluster.fresh_per_key"] = ratio(float64(t.served[servedFresh]), float64(len(keys)))
	m["loadgen.lag_p99_ms"] = t.lag.Quantile(0.99)

	rp := replay(sample, cl.check.bodies)
	for k, v := range rp.metrics {
		m[k] = v
	}
	// Serve's own steps outside the Server-Timing phases, per request,
	// weighted by the run's route mix.
	m["serve.decode_us"] = weighted(rp.decodeUS, routes)
	m["serve.canonicalize_us"] = weighted(rp.canonUS, routes)
	m["serve.key_us"] = weighted(rp.keyUS, routes)
	m["serve.encode_us"] = weighted(rp.encodeUS, routes)
	serveSteps := m["serve.decode_us"] + m["serve.canonicalize_us"] + m["serve.key_us"] + m["serve.encode_us"]
	layers := meanTransport + (m["obs.middleware_us"]+serveSteps)/1000 + meanPhases
	m["closure.gap_ratio"] = ratio(math.Abs(meanSvc-layers), meanSvc)
	return m
}

func weighted(perRoute, routes map[string]float64) float64 {
	var sum, n float64
	for route, c := range routes {
		sum += c * perRoute[route]
		n += c
	}
	return ratio(sum, n)
}

// replayed holds the serialized replays' results.
type replayed struct {
	metrics                            map[string]float64
	decodeUS, canonUS, keyUS, encodeUS map[string]float64 // per route
}

// allocObjects reads the process's cumulative heap allocation count.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timed runs fn n times and returns the mean wall time per call in
// microseconds and the mean heap allocations per call. Replays run one
// at a time after the load phase, so the allocation count is exact up
// to the runtime's own background work.
func timed(n int, fn func(i int)) (us, allocs float64) {
	a0 := allocObjects()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start)
	return float64(el) / float64(time.Microsecond) / float64(n), float64(allocObjects()-a0) / float64(n)
}

// replay times the public entry points of each layer on the run's own
// corpus: serve's decode/canonicalize/key/encode and cache lookup, the
// obs middleware, the planner, the estimator and the ring.
func replay(sample []request, bodies map[string][]byte) replayed {
	rp := replayed{metrics: map[string]float64{},
		decodeUS: map[string]float64{}, canonUS: map[string]float64{}, keyUS: map[string]float64{},
		encodeUS: map[string]float64{}}
	m := rp.metrics

	byRoute := map[string][]request{}
	for _, req := range sample {
		byRoute[req.Route] = append(byRoute[req.Route], req)
	}
	const reps = 20000
	for route, reqs := range byRoute {
		decode := func(body []byte) (serve.PlanSpec, serve.EstimateSpec) {
			var ps serve.PlanSpec
			var es serve.EstimateSpec
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if route == "plan" {
				_ = dec.Decode(&ps) // generated bodies always decode
			} else {
				_ = dec.Decode(&es)
			}
			return ps, es
		}
		rp.decodeUS[route], _ = timed(reps, func(i int) { decode(reqs[i%len(reqs)].Body) })
		ps := make([]serve.PlanSpec, len(reqs))
		es := make([]serve.EstimateSpec, len(reqs))
		for i, req := range reqs {
			ps[i], es[i] = decode(req.Body)
		}
		if route == "plan" {
			rp.canonUS[route], _ = timed(reps, func(i int) { _, _ = ps[i%len(ps)].Canonicalize() })
			for i := range ps {
				ps[i], _ = ps[i].Canonicalize()
			}
			rp.keyUS[route], _ = timed(reps, func(i int) { _ = ps[i%len(ps)].Key() })
		} else {
			rp.canonUS[route], _ = timed(reps, func(i int) { _, _ = es[i%len(es)].Canonicalize() })
			for i := range es {
				es[i], _ = es[i].Canonicalize()
			}
			rp.keyUS[route], _ = timed(reps, func(i int) { _ = es[i%len(es)].Key() })
		}
		var resps []any
		for _, req := range reqs {
			body, ok := bodies[req.Key]
			if !ok {
				continue
			}
			if route == "plan" {
				var p serve.PlanResponse
				if json.Unmarshal(body, &p) == nil {
					resps = append(resps, p)
				}
			} else {
				var e serve.EstimateResponse
				if json.Unmarshal(body, &e) == nil {
					resps = append(resps, e)
				}
			}
		}
		if len(resps) > 0 {
			rp.encodeUS[route], _ = timed(reps, func(i int) { _ = json.NewEncoder(io.Discard).Encode(resps[i%len(resps)]) })
		}
	}

	// Cache lookup: a csserve-sized LRU holding the sample's keys.
	creg := obs.NewRegistry()
	cache := serve.NewCache(csserveCaches.plan, 16, serve.CacheMetrics{
		Hits:      creg.Counter("hits", ""),
		Misses:    creg.Counter("misses", ""),
		Evictions: creg.Counter("evictions", ""),
	})
	for _, req := range sample {
		cache.Put(req.Key, req)
	}
	m["serve.cache_lookup_us"], _ = timed(5*reps, func(i int) { cache.Get(sample[i%len(sample)].Key) })

	// obs middleware with csserve's tracer and SLO configuration around a
	// no-op handler, less the no-op handler alone.
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mw := obs.InstrumentHandler(obs.NewRegistry(), "plan", obs.NewTracer(csserveTracerConfig),
		obs.NewSLOTracker(csserveSLOConfig), noop)
	hreq := httptest.NewRequest(http.MethodPost, "/v1/plan", nil)
	withMW, _ := timed(reps, func(int) { mw.ServeHTTP(httptest.NewRecorder(), hreq) })
	bare, _ := timed(reps, func(int) { noop.ServeHTTP(httptest.NewRecorder(), hreq) })
	m["obs.middleware_us"] = max(0, withMW-bare)

	replayPlanner(m, sample)
	replayEstimator(m, sample)

	ring := cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"})
	us, _ := timed(5*reps, func(i int) { ring.Owner(sample[i%len(sample)].Key) })
	m["cluster.ring_owner_ns"] = us * 1000
	return rp
}

// specsByFamily decodes up to n plan specs per family from the sample
// (an estimate contributes the scenario it embeds).
func specsByFamily(sample []request, n int) map[string][]serve.PlanSpec {
	out := map[string][]serve.PlanSpec{}
	for _, req := range sample {
		var es serve.EstimateSpec
		if json.Unmarshal(req.Body, &es) != nil || len(out[es.Life]) >= n {
			continue
		}
		out[es.Life] = append(out[es.Life], es.PlanSpec)
	}
	return out
}

func lifeOf(s serve.PlanSpec) lifefn.Life {
	l, err := nowsim.BuildLife(s.Life, s.Lifespan, s.HalfLife, s.D)
	if err != nil {
		panic(err) // generated specs always build; the tests pin it
	}
	return l
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// replayPlanner times Planner.PlanBest per family and on the
// conditional life functions progressive replanning builds, plus the t0
// bracket and one E(S;p) evaluation.
func replayPlanner(m map[string]float64, sample []request) {
	var (
		cond, bracket, expected, evals, periods []float64
		plans                                   int
		allocs                                  uint64
	)
	for _, family := range families {
		var best []float64
		for _, s := range specsByFamily(sample, 8)[family] {
			life := lifeOf(s)
			pl, err := core.NewPlanner(life, s.C, core.PlanOptions{})
			if err != nil {
				continue
			}
			a0 := allocObjects()
			start := time.Now()
			plan, err := pl.PlanBest()
			el := time.Since(start)
			allocs += allocObjects() - a0
			if err != nil {
				continue
			}
			plans++
			best = append(best, float64(el)/float64(time.Millisecond))
			evals = append(evals, float64(plan.Evaluations))
			periods = append(periods, float64(plan.Schedule.Len()))
			us, _ := timed(8, func(int) { _, _ = pl.T0Bracket() })
			bracket = append(bracket, us)
			us, _ = timed(32, func(int) { _ = sched.ExpectedWork(plan.Schedule, life, s.C) })
			expected = append(expected, us)

			// progressive's second replan: conditioned on surviving the
			// first period, at progressive's scan resolution.
			c, err := lifefn.NewConditional(life, plan.T0)
			if err != nil {
				continue
			}
			if _, ok := core.ExistsProductive(c, s.C); !ok {
				continue
			}
			cp, err := core.NewPlanner(c, s.C, core.PlanOptions{ScanPoints: 16})
			if err != nil {
				continue
			}
			start = time.Now()
			if _, err := cp.PlanBest(); err == nil {
				cond = append(cond, float64(time.Since(start))/float64(time.Millisecond))
			}
		}
		m["core.plan_best_ms."+family] = median(best)
	}
	m["core.plan_best_ms.conditional"] = median(cond)
	m["core.t0_bracket_us"] = median(bracket)
	m["sched.expected_work_us"] = median(expected)
	m["core.evaluations"] = mean(evals)
	m["core.periods"] = mean(periods)
	m["core.allocs_per_plan"] = ratio(float64(allocs), float64(plans))
}

// replayEstimator times MonteCarloCtx serially, as the server calls it,
// per policy; reclaim sampling per family; and single episodes of the
// guideline schedule.
func replayEstimator(m map[string]float64, sample []request) {
	const episodes = 2000
	var (
		perPolicy                = map[string][2]float64{} // total us, episodes
		episodeUS, episodeAllocs []float64
	)
	ctx := context.Background()
	for _, family := range families {
		specs := specsByFamily(sample, 2)[family]
		var reclaimNS []float64
		for _, s := range specs {
			life := lifeOf(s)
			owner := nowsim.LifeOwner{Life: life}
			src := rng.New(1)
			us, _ := timed(5000, func(int) { owner.ReclaimAfter(src) })
			reclaimNS = append(reclaimNS, us*1000)

			for _, policy := range []struct {
				name, spec string
				n          int
			}{
				{"guideline", "guideline", episodes},
				{"fixed", "fixed:" + strconv.FormatFloat(10*s.C, 'g', -1, 64), episodes},
				{"progressive", "progressive", 2},
			} {
				pol, err := nowsim.ParsePolicy(policy.spec, life, s.C, core.PlanOptions{})
				if err != nil {
					continue
				}
				start := time.Now()
				if _, err := nowsim.MonteCarloCtx(ctx, pol.Factory(), owner, s.C, policy.n, 1, nowsim.Obs{}); err != nil {
					continue
				}
				acc := perPolicy[policy.name]
				perPolicy[policy.name] = [2]float64{acc[0] + float64(time.Since(start))/float64(time.Microsecond), acc[1] + float64(policy.n)}
				if policy.name == "guideline" {
					p := pol.Factory()
					reclaims := make([]float64, episodes)
					for i := range reclaims {
						reclaims[i] = owner.ReclaimAfter(src)
					}
					us, allocs := timed(episodes, func(i int) { nowsim.RunEpisode(p, s.C, reclaims[i]) })
					episodeUS = append(episodeUS, us)
					episodeAllocs = append(episodeAllocs, allocs)
				}
			}
		}
		m["nowsim.reclaim_sample_ns."+family] = median(reclaimNS)
	}
	for name, acc := range perPolicy {
		m["nowsim.mc_us_per_episode."+name] = ratio(acc[0], acc[1])
	}
	m["nowsim.episode_us"] = median(episodeUS)
	m["nowsim.allocs_per_episode"] = mean(episodeAllocs)
}
