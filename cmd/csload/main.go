// Command csload drives a running csserve with waves of concurrent
// requests and reports per-wave latency, status and cache statistics as
// JSON. Its job is to make the serving layer's scaling behaviour
// observable from the outside: wave 1 against a cold cache pays the
// full planning cost, wave 2 re-sends the same specs and should be
// served from the LRU cache orders of magnitude faster. The report
// carries both wall-clock and server-side-elapsed speedups so CI can
// assert on the latter, which is immune to HTTP jitter, plus
// client-side p50/p99/max latency per wave.
//
// Every request carries a W3C traceparent header, so load waves are
// visible as stitched traces in the server's /debug/traces store; each
// wave reports the trace ID of its slowest request for direct lookup.
//
// Usage:
//
//	csload -addr http://localhost:8080                 # 2 waves x 32 plans
//	csload -requests 64 -concurrency 16 -distinct 64   # all-distinct cold wave
//	csload -endpoint estimate -episodes 200000         # Monte-Carlo load
//	csload -waves 1 -distinct 32 -timeout-ms 50        # burst: expect 429s
//	csload -targets http://h1:8080,http://h2:8080      # client-side shard map
//
// With -targets the load generator is its own front tier: each spec's
// canonical cache key picks a replica through the same rendezvous ring
// csgate uses, so a gateless cluster still sees consistent-hash
// routing. The report then carries per-target request/error counts,
// and cluster-level dedup counters: fresh (computed from scratch:
// neither cached, coalesced nor peer-filled), peer_filled, and
// max_fresh_per_key — in a healthy cluster at most 1 per wave.
//
// Exit status: 0 when every request got an HTTP response (any status),
// 1 when transport errors occurred — including a subset of -targets
// replicas being unreachable (partial-replica failure: the reachable
// targets' requests still complete and are still reported), 2 on
// usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// targetStats is one replica's share of a wave under -targets.
type targetStats struct {
	Requests int `json:"requests"`
	Errors   int `json:"errors"` // transport failures against this target
}

// waveReport is one wave's aggregate view of the service.
type waveReport struct {
	Wave            int            `json:"wave"`
	Requests        int            `json:"requests"`
	OK              int            `json:"ok"`
	Errors          int            `json:"errors"` // transport failures, not HTTP statuses
	Status          map[string]int `json:"status"`
	Cached          int            `json:"cached"`
	Coalesced       int            `json:"coalesced"`
	PeerFilled      int            `json:"peer_filled"`
	Fresh           int            `json:"fresh"` // 200s computed from scratch (not cached/coalesced/peer-filled)
	MaxFreshPerKey  int            `json:"max_fresh_per_key"`
	WallMS          float64        `json:"wall_ms"`
	P50MS           float64        `json:"p50_ms"`
	P99MS           float64        `json:"p99_ms"`
	MaxMS           float64        `json:"max_ms"`
	SlowestTraceID  string         `json:"slowest_trace_id,omitempty"`
	ServerElapsedMS float64        `json:"server_elapsed_ms_total"`

	Targets map[string]*targetStats `json:"targets,omitempty"`
}

type report struct {
	Endpoint             string       `json:"endpoint"`
	Waves                []waveReport `json:"waves"`
	SpeedupWall          float64      `json:"speedup_wall"`
	SpeedupServerElapsed float64      `json:"speedup_server_elapsed"`
}

// result is one request's outcome, written only by its own worker.
type result struct {
	status int // 0 on transport error
	serve.Served
	latencyMS float64
	traceID   string
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("csload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "http://localhost:8080", "base URL of the csserve instance (or csgate)")
		targets     = fs.String("targets", "", "comma-separated replica base URLs; requests shard across them by canonical cache key (overrides -addr)")
		endpoint    = fs.String("endpoint", "plan", "endpoint to drive: plan or estimate")
		requests    = fs.Int("requests", 32, "requests per wave")
		concurrency = fs.Int("concurrency", 8, "concurrent in-flight requests")
		waves       = fs.Int("waves", 2, "number of waves; wave 2+ re-sends wave 1's specs")
		distinct    = fs.Int("distinct", 0, "distinct specs per wave (0 = one per request)")
		lifespan    = fs.Float64("lifespan", 600, "base lifespan; distinct specs step it by one")
		overhead    = fs.Float64("c", 1, "per-chunk communication overhead")
		life        = fs.String("life", "poly", "life function family for the generated specs")
		degree      = fs.Int("d", 3, "polynomial degree when -life poly")
		policy      = fs.String("policy", "guideline", "policy for -endpoint estimate")
		episodes    = fs.Int("episodes", 100_000, "episodes for -endpoint estimate")
		timeoutMS   = fs.Int("timeout-ms", 0, "per-request timeout_ms field (0 = server default)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *endpoint != "plan" && *endpoint != "estimate" {
		fmt.Fprintf(stderr, "csload: unknown endpoint %q (want plan or estimate)\n", *endpoint)
		return 2
	}
	if *requests <= 0 || *waves <= 0 || *concurrency <= 0 {
		fmt.Fprintln(stderr, "csload: -requests, -waves and -concurrency must be positive")
		return 2
	}
	if *distinct <= 0 || *distinct > *requests {
		*distinct = *requests
	}

	// The client-side shard map: with -targets each spec's canonical
	// key picks its replica through the same rendezvous ring csgate
	// builds, so this load generator and a gate in front of the same
	// replicas route identically.
	var ring *cluster.Ring
	if *targets != "" {
		var urls []string
		for _, u := range strings.Split(*targets, ",") {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			fmt.Fprintln(stderr, "csload: -targets given but contains no URLs")
			return 2
		}
		ring = cluster.NewRing(urls)
	}

	// Pre-build the request bodies: spec i of a wave varies lifespan by
	// i mod distinct, so every wave covers the same key set and warm
	// waves hit the cold wave's cache entries. Each body's canonical
	// cache key (the same one the replica derives) labels it for
	// per-key fresh counting and, under -targets, picks its replica.
	bodies := make([][]byte, *requests)
	keys := make([]string, *requests)
	urls := make([]string, *requests)
	for i := range bodies {
		spec := map[string]any{
			"life":     *life,
			"lifespan": *lifespan + float64(i%*distinct),
			"c":        *overhead,
		}
		if *life == "poly" {
			spec["d"] = *degree
		}
		if *timeoutMS > 0 {
			spec["timeout_ms"] = *timeoutMS
		}
		if *endpoint == "estimate" {
			spec["policy"] = *policy
			spec["episodes"] = *episodes
			spec["seed"] = 1 + i%*distinct
		}
		b, err := json.Marshal(spec)
		if err != nil {
			fmt.Fprintln(stderr, "csload:", err)
			return 2
		}
		bodies[i] = b
		key, err := canonicalKey(*endpoint, b)
		if err != nil {
			fmt.Fprintf(stderr, "csload: generated spec %d does not canonicalize: %v\n", i, err)
			return 2
		}
		keys[i] = key
		base := *addr
		if ring != nil {
			base = ring.Owner(key)
		}
		urls[i] = base + "/v1/" + *endpoint
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	rep := report{Endpoint: *endpoint}
	for w := 0; w < *waves; w++ {
		rep.Waves = append(rep.Waves, runWave(client, urls, w+1, bodies, keys, *concurrency, ring != nil))
	}
	if n := len(rep.Waves); n >= 2 {
		cold, warm := rep.Waves[0], rep.Waves[n-1]
		rep.SpeedupWall = ratio(cold.WallMS, warm.WallMS)
		rep.SpeedupServerElapsed = ratio(cold.ServerElapsedMS, warm.ServerElapsedMS)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "csload:", err)
		return 1
	}
	for _, w := range rep.Waves {
		if w.Errors > 0 {
			fmt.Fprintf(stderr, "csload: wave %d had %d transport errors\n", w.Wave, w.Errors)
			return 1
		}
	}
	return 0
}

// canonicalKey derives a generated body's cache key by the replica's
// own rules, so the shard map and per-key fresh counting agree with
// the cluster on key identity.
func canonicalKey(endpoint string, body []byte) (string, error) {
	if endpoint == "estimate" {
		var spec serve.EstimateSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return "", err
		}
		norm, err := spec.Canonicalize()
		if err != nil {
			return "", err
		}
		return norm.Key(), nil
	}
	var spec serve.PlanSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return "", err
	}
	norm, err := spec.Canonicalize()
	if err != nil {
		return "", err
	}
	return norm.Key(), nil
}

// runWave fires the bodies at their URLs over `concurrency` workers.
// Results land in per-request slots, each written by exactly one
// worker, so aggregation needs no locks.
func runWave(client *http.Client, urls []string, wave int, bodies [][]byte, keys []string, concurrency int, sharded bool) waveReport {
	results := make([]result, len(bodies))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = doRequest(client, urls[i], bodies[i])
			}
		}()
	}
	for i := range bodies {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	rep := waveReport{
		Wave:     wave,
		Requests: len(bodies),
		Status:   map[string]int{},
		WallMS:   float64(wall) / float64(time.Millisecond),
	}
	if sharded {
		rep.Targets = map[string]*targetStats{}
	}
	freshByKey := map[string]int{}
	latencies := make([]float64, 0, len(results))
	for i, r := range results {
		if sharded {
			target := strings.TrimSuffix(urls[i], "/v1/plan")
			target = strings.TrimSuffix(target, "/v1/estimate")
			ts := rep.Targets[target]
			if ts == nil {
				ts = &targetStats{}
				rep.Targets[target] = ts
			}
			ts.Requests++
			if r.status == 0 {
				ts.Errors++
			}
		}
		// Transport failures (status 0) carry no latency or trace ID;
		// they count only as errors, so a wave with no HTTP responses
		// reports max_ms 0 and omits slowest_trace_id instead of
		// fabricating them from zero-value results.
		if r.status == 0 {
			rep.Errors++
			continue
		}
		rep.Status[strconv.Itoa(r.status)]++
		latencies = append(latencies, r.latencyMS)
		if len(latencies) == 1 || r.latencyMS > rep.MaxMS {
			rep.MaxMS = r.latencyMS
			rep.SlowestTraceID = r.traceID
		}
		if r.status == http.StatusOK {
			rep.OK++
			rep.ServerElapsedMS += r.ElapsedMS
			// A fresh computation is one nothing deduplicated: not a
			// cache hit, not coalesced onto another in-flight request,
			// not filled from a peer. The per-key max is the cluster's
			// compute-once invariant made observable: > 1 means two
			// replicas (or two waves of one replica) paid for the same
			// question.
			if !r.Cached && !r.Coalesced && !r.PeerFilled {
				rep.Fresh++
				freshByKey[keys[i]]++
				if freshByKey[keys[i]] > rep.MaxFreshPerKey {
					rep.MaxFreshPerKey = freshByKey[keys[i]]
				}
			}
		}
		if r.Cached {
			rep.Cached++
		}
		if r.Coalesced {
			rep.Coalesced++
		}
		if r.PeerFilled {
			rep.PeerFilled++
		}
	}
	rep.P50MS = quantile(latencies, 0.50)
	rep.P99MS = quantile(latencies, 0.99)
	return rep
}

func doRequest(client *http.Client, url string, body []byte) result {
	// Root a trace per request so the server's spans stitch under it;
	// the server echoes the trace ID back in X-Trace-Id.
	tc := obs.NewTraceContext()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return result{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return result{}
	}
	defer resp.Body.Close()
	var payload serve.Served
	_ = json.NewDecoder(resp.Body).Decode(&payload)
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if traceID == "" {
		traceID = tc.TraceIDString() // older server: still report what we sent
	}
	return result{
		status:    resp.StatusCode,
		Served:    payload,
		latencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		traceID:   traceID,
	}
}

// quantile returns the q-quantile of xs by nearest-rank on a sorted
// copy; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i]
}

// ratio guards the speedup division: a fully cached warm wave can
// report ~0 elapsed, which would make the speedup meaninglessly
// infinite (and unrepresentable in JSON). Clamp the denominator to a
// microsecond.
func ratio(num, den float64) float64 {
	const floorMS = 1e-3
	if den < floorMS {
		den = floorMS
	}
	return num / den
}
