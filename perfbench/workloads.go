package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"repro/internal/serve"
)

// Workload constants. They are part of the benchmark's definition: a
// change that claims a gain must not edit them.
const (
	// hotSpecs is plan-hot's warm working set; coldWarmSpecs is
	// plan-cold's set-up traffic.
	hotSpecs      = 256
	coldWarmSpecs = 128
	// zipfS is plan-hot's Zipf popularity exponent: web request traces
	// fit Zipf-like laws with exponents between 0.64 and 0.83 (Breslau
	// et al., "Web Caching and Zipf-like Distributions", INFOCOM 1999).
	zipfS = 0.7

	// cluster-spread sends every key exactly clusterSends times, in a
	// seeded order inside blocks of clusterBlockKeys fresh keys, so keys
	// retire after a few requests and the share of requests that compute
	// or fill from a peer stays the same from the first second to the
	// last. Every clusterEstEvery-th key is an estimate, the rest plans.
	clusterSends     = 4
	clusterBlockKeys = 32
	clusterEstEvery  = 8
	// replicas is cluster-spread's replica count.
	replicas = 3

	// progressiveEpisodeCap bounds progressive estimates: at csserve's
	// default 100k episodes one always answers 504.
	progressiveEpisodeCap = 10
)

// estimateEpisodes are the episode counts of guideline and fixed
// estimates.
var estimateEpisodes = []int{2000, 5000, 20000}

// families are the four life-function families /v1/plan accepts; every
// workload draws them in equal shares.
var families = []string{"uniform", "poly", "geomdec", "geominc"}

// request is one generated HTTP request and what the generator knows
// about its answer.
type request struct {
	Route    string // "plan" or "estimate"
	Body     []byte
	Key      string // canonical key the server must echo
	C        float64
	Policy   string // estimates only
	Episodes int    // estimates only
	Target   int    // replica index (cluster-spread)
}

// corpus is a workload's seeded input: warm is sent once during set-up,
// then the clients draw next(0), next(1), ...
type corpus struct {
	warm []request
	next func(i int) request
}

// cacheSizes are a replica's LRU capacities in entries.
type cacheSizes struct{ plan, estimate int }

var (
	// csserveCaches are csserve's default -plan-cache and -estimate-cache.
	csserveCaches = cacheSizes{plan: 4096, estimate: 512}
	// clusterCaches are smaller: a cluster-spread key lives for one block
	// of clusterBlockKeys keys, and at about 700 requests per second a
	// replica would take the whole run to fill csserve's default caches,
	// so its heap, and with it heap_peak_mib and gc_cycles_per_1k_req,
	// would grow with throughput. These fill within the first two
	// seconds and hold each key for several blocks.
	clusterCaches = cacheSizes{plan: 256, estimate: 64}
)

// workload is one named traffic mix.
type workload struct {
	name     string
	why      string
	replicas int
	caches   cacheSizes
	gen      func(seed uint64) (*corpus, error)
}

var workloads = []workload{
	{
		name:   "plan-cold",
		why:    "closed loop, 2 clients, every /v1/plan spec distinct: all time in the planner (core, sched, lifefn)",
		caches: csserveCaches,
		gen:    genPlanCold,
	},
	{
		name:   "plan-hot",
		why:    "closed loop, 2 clients, Zipf over 256 pre-warmed specs: all cache hits, time in net/http, obs and serve",
		caches: csserveCaches,
		gen:    genPlanHot,
	},
	{
		name:     "cluster-spread",
		why:      "closed loop, 2 clients, 3 steal-fill replicas picked at random, each cold plan/estimate key sent 4 times: every miss runs peer fill",
		replicas: replicas,
		caches:   clusterCaches,
		gen:      genClusterSpread,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Stream tags keep the per-purpose random streams of one seed apart.
const (
	tagCold = iota + 1
	tagHotSpec
	tagHotDraw
	tagClusterSpec
	tagClusterDraw
	tagColdWarm
	tagClusterTarget
)

// stream returns the deterministic random source for (seed, tag, i).
func stream(seed uint64, tag int, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(tag)<<48|uint64(i)))
}

// round3 keeps generated parameters short on the wire.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// drawSpec draws a plan spec of the given family from ranges that
// always plan: the overhead c stays well below the lifespan or
// half-life.
func drawSpec(r *rand.Rand, family string) serve.PlanSpec {
	s := serve.PlanSpec{Life: family, C: round3(0.5 + 3.5*r.Float64())}
	switch family {
	case "uniform":
		s.Lifespan = round3(500 + 3500*r.Float64())
	case "poly":
		s.Lifespan = round3(500 + 3500*r.Float64())
		s.D = 2 + r.IntN(3)
	case "geomdec":
		s.HalfLife = round3(16 + 112*r.Float64())
	case "geominc":
		s.Lifespan = round3(100 + 400*r.Float64())
	}
	return s
}

func planRequest(spec serve.PlanSpec) (request, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return request{}, fmt.Errorf("plan spec %+v: %w", spec, err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return request{}, err
	}
	return request{Route: "plan", Body: body, Key: canon.Key(), C: canon.C}, nil
}

func estimateRequest(spec serve.PlanSpec, policy string, episodes int, mcSeed uint64) (request, error) {
	es := serve.EstimateSpec{PlanSpec: spec, Policy: policy, Episodes: episodes, Seed: mcSeed}
	canon, err := es.Canonicalize()
	if err != nil {
		return request{}, fmt.Errorf("estimate spec %+v: %w", es, err)
	}
	body, err := json.Marshal(es)
	if err != nil {
		return request{}, err
	}
	return request{Route: "estimate", Body: body, Key: canon.Key(), C: canon.C,
		Policy: policy, Episodes: episodes}, nil
}

// fixedChunk draws a fixed:<chunk> policy whose chunk is between 1/32
// and 1/4 of the life function's scale, so a fixed schedule is about as
// long as a guideline one whatever c is.
func fixedChunk(r *rand.Rand, spec serve.PlanSpec) string {
	scale := spec.Lifespan
	if spec.Life == "geomdec" {
		scale = 4 * spec.HalfLife
	}
	chunk := max(2*spec.C, round3(scale*(1.0/32+r.Float64()*7/32)))
	return "fixed:" + strconv.FormatFloat(chunk, 'g', -1, 64)
}

// freshEstimate is the k-th fresh estimate of a rotation over spec:
// guideline and fixed:<chunk> alternate through estimateEpisodes.
func freshEstimate(r *rand.Rand, spec serve.PlanSpec, k int) (request, error) {
	mcSeed := r.Uint64()>>1 + 1
	episodes := estimateEpisodes[(k/2)%len(estimateEpisodes)]
	if k%2 == 0 {
		return estimateRequest(spec, "guideline", episodes, mcSeed)
	}
	return estimateRequest(spec, fixedChunk(r, spec), episodes, mcSeed)
}

// zipf is a Zipf(s) popularity law over ranks [0, n).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// hotSet draws n plan specs, families in rotation.
func hotSet(seed uint64, tag, n int) ([]request, error) {
	out := make([]request, n)
	for k := range out {
		req, err := planRequest(drawSpec(stream(seed, tag, k), families[k%len(families)]))
		if err != nil {
			return nil, err
		}
		out[k] = req
	}
	return out, nil
}

func genPlanCold(seed uint64) (*corpus, error) {
	// The warm set only opens the connections and pages in the planner;
	// its own stream keeps its keys out of the measured phase.
	warm, err := hotSet(seed, tagColdWarm, coldWarmSpecs)
	if err != nil {
		return nil, err
	}
	next := func(i int) request {
		req, err := planRequest(drawSpec(stream(seed, tagCold, i), families[i%len(families)]))
		if err != nil {
			panic(err) // drawSpec's ranges always canonicalize; the tests pin it
		}
		return req
	}
	return &corpus{warm: warm, next: next}, nil
}

func genPlanHot(seed uint64) (*corpus, error) {
	set, err := hotSet(seed, tagHotSpec, hotSpecs)
	if err != nil {
		return nil, err
	}
	z := newZipf(len(set), zipfS)
	return &corpus{
		warm: set,
		next: func(i int) request { return set[z.draw(stream(seed, tagHotDraw, i))] },
	}, nil
}

// genClusterSpread cuts the request stream into blocks of
// clusterBlockKeys*clusterSends requests. A block holds clusterBlockKeys
// keys never sent before, each clusterSends times in a seeded order,
// and every request goes to a replica drawn from the seed. The first
// send of a key computes after its peer probes miss; a later send to a
// replica that has not answered the key yet fills from a peer.
func genClusterSpread(seed uint64) (*corpus, error) {
	key := func(k int) (request, error) {
		r := stream(seed, tagClusterSpec, k)
		if j := k / clusterEstEvery; k%clusterEstEvery == clusterEstEvery-1 {
			// Estimates count apart, so that they too rotate through the
			// families; j/2 keeps the family independent of the policy,
			// which freshEstimate alternates with j.
			return freshEstimate(r, drawSpec(r, families[(j/2)%len(families)]), j)
		}
		return planRequest(drawSpec(r, families[k%len(families)]))
	}
	const block = clusterBlockKeys * clusterSends
	return &corpus{next: func(i int) request {
		b, pos := i/block, i%block
		k := b*clusterBlockKeys + stream(seed, tagClusterDraw, b).Perm(block)[pos]/clusterSends
		req, err := key(k)
		if err != nil {
			panic(err) // drawSpec's ranges always canonicalize; the tests pin it
		}
		req.Target = stream(seed, tagClusterTarget, i).IntN(replicas)
		return req
	}}, nil
}
