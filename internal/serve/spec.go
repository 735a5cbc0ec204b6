// Package serve is the long-running plan/simulation service: HTTP/JSON
// endpoints over the paper's planner (system 3.6 recurrence via
// core.PlanBest) and the nowsim Monte-Carlo harness, scaled for many
// concurrent what-if queries by three layers:
//
//   - a sharded LRU cache of computed plans keyed by the canonicalized
//     request spec, so an identical question is answered once;
//   - request coalescing (singleflight): N concurrent identical
//     requests run one computation and share the result, with the
//     computation cancelled only when every waiter has gone away;
//   - an admission semaphore with backpressure: at most Workers
//     computations run at once, each on its singleflight goroutine,
//     and at most Queue more wait for a slot; a full queue rejects
//     immediately (the handler maps that to 429 + Retry-After) instead
//     of letting latency collapse, and per-request deadlines abandon
//     simulations nobody is waiting for.
//
// Everything is instrumented through internal/obs: request latency
// quantiles, queue depth, cache hit/miss/eviction counts, coalesce and
// cancellation counters, all on /metrics.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
)

// Spec limits. Bounds are validation, not tuning: they keep one request
// from monopolizing a worker for minutes or blowing up the response
// size.
const (
	// MaxEpisodesLimit caps /v1/estimate episode counts.
	MaxEpisodesLimit = 5_000_000
	// maxLifespan caps lifespans/half-lives so schedule generation and
	// episode simulation stay bounded.
	maxLifespan = 1e9
	// maxPolyDegree caps the polynomial exponent.
	maxPolyDegree = 64
)

// PlanSpec is the body of POST /v1/plan: a life-function scenario to
// plan for. Zero-valued fields take the CLI defaults (uniform life,
// L=1000, halflife=32, d=2, c=1), mirroring csplan.
type PlanSpec struct {
	// Life is the life-function family: uniform, poly, geomdec or
	// geominc (the nowsim.BuildLife vocabulary).
	Life string `json:"life,omitempty"`
	// Lifespan is the potential lifespan L (uniform, poly, geominc).
	Lifespan float64 `json:"lifespan,omitempty"`
	// HalfLife is the geometric half-life (geomdec).
	HalfLife float64 `json:"halflife,omitempty"`
	// D is the polynomial exponent (poly).
	D int `json:"d,omitempty"`
	// C is the per-period communication overhead.
	C float64 `json:"c,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// clamped to its maximum. It does not participate in the cache key.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// lifeParams records which spec fields a life family actually reads.
// Canonicalization zeroes the rest, so requests differing only in an
// ignored parameter share one cache entry and one in-flight
// computation.
var lifeParams = map[string]struct{ lifespan, halflife, d bool }{
	"uniform": {lifespan: true},
	"poly":    {lifespan: true, d: true},
	"geomdec": {halflife: true},
	"geominc": {lifespan: true},
}

// normalize applies defaults, validates ranges, and strips parameters
// the chosen life function ignores. The returned spec is canonical:
// two requests asking the same mathematical question normalize to
// equal specs and therefore equal cache keys.
func (s PlanSpec) normalize() (PlanSpec, error) {
	if s.Life == "" {
		s.Life = "uniform"
	}
	params, ok := lifeParams[s.Life]
	if !ok {
		return s, fmt.Errorf("unknown life function %q (want uniform, poly, geomdec, or geominc)", s.Life)
	}
	if s.Lifespan == 0 {
		s.Lifespan = 1000
	}
	if s.HalfLife == 0 {
		s.HalfLife = 32
	}
	if s.D == 0 {
		s.D = 2
	}
	if s.C == 0 {
		s.C = 1
	}
	if !(s.C > 0) || math.IsInf(s.C, 0) || math.IsNaN(s.C) {
		return s, fmt.Errorf("overhead c must be positive and finite, got %g", s.C)
	}
	if !(s.Lifespan > 0) || s.Lifespan > maxLifespan {
		return s, fmt.Errorf("lifespan must be in (0, %g], got %g", maxLifespan, s.Lifespan)
	}
	if !(s.HalfLife > 0) || s.HalfLife > maxLifespan {
		return s, fmt.Errorf("halflife must be in (0, %g], got %g", maxLifespan, s.HalfLife)
	}
	if s.D < 1 || s.D > maxPolyDegree {
		return s, fmt.Errorf("d must be in [1, %d], got %d", maxPolyDegree, s.D)
	}
	if !params.lifespan {
		s.Lifespan = 0
	}
	if !params.halflife {
		s.HalfLife = 0
	}
	if !params.d {
		s.D = 0
	}
	if s.TimeoutMS < 0 {
		return s, fmt.Errorf("timeout_ms must be >= 0, got %d", s.TimeoutMS)
	}
	return s, nil
}

// g formats a float the way the cache key needs: shortest exact form.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Key returns the canonical cache key. Call only on normalized specs.
func (s PlanSpec) Key() string {
	var sb strings.Builder
	sb.WriteString("plan|life=")
	sb.WriteString(s.Life)
	sb.WriteString("|L=")
	sb.WriteString(g(s.Lifespan))
	sb.WriteString("|hl=")
	sb.WriteString(g(s.HalfLife))
	sb.WriteString("|d=")
	sb.WriteString(strconv.Itoa(s.D))
	sb.WriteString("|c=")
	sb.WriteString(g(s.C))
	return sb.String()
}

// Canonicalize returns the normalized spec — the one RequestKey keys,
// exported for clients that build specs in Go rather than as JSON.
func (s PlanSpec) Canonicalize() (PlanSpec, error) { return s.normalize() }

// timeout is the requested deadline in milliseconds (0: the default).
func (s PlanSpec) timeout() int { return s.TimeoutMS }

// buildLife resolves the normalized spec to a life function, restoring
// the defaults canonicalization zeroed (BuildLife validates the ones
// that matter).
func (s PlanSpec) buildLife() (lifefn.Life, error) {
	lifespan, halflife, d := s.Lifespan, s.HalfLife, s.D
	if lifespan == 0 {
		lifespan = 1000
	}
	if halflife == 0 {
		halflife = 32
	}
	if d == 0 {
		d = 2
	}
	return nowsim.BuildLife(s.Life, lifespan, halflife, d)
}

// EstimateSpec is the body of POST /v1/estimate: a scenario plus a
// chunking policy and Monte-Carlo parameters. The estimate is
// deterministic given (spec, policy, episodes, seed), which is what
// makes coalescing and caching sound.
type EstimateSpec struct {
	PlanSpec
	// Policy is the nowsim.ParsePolicy vocabulary: guideline,
	// progressive, fixed:<chunk>, or allatonce.
	Policy string `json:"policy,omitempty"`
	// Episodes is the Monte-Carlo episode count (default 100000,
	// capped by the server's -max-episodes).
	Episodes int `json:"episodes,omitempty"`
	// Seed seeds the deterministic RNG stream (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

var errEpisodesRange = errors.New("episodes out of range")

// normalize canonicalizes the embedded scenario and the Monte-Carlo
// parameters. maxEpisodes is the server's configured cap.
func (s EstimateSpec) normalize(maxEpisodes int) (EstimateSpec, error) {
	var err error
	s.PlanSpec, err = s.PlanSpec.normalize()
	if err != nil {
		return s, err
	}
	if s.Policy == "" {
		s.Policy = "guideline"
	}
	if s.Episodes == 0 {
		s.Episodes = 100_000
	}
	if maxEpisodes <= 0 || maxEpisodes > MaxEpisodesLimit {
		maxEpisodes = MaxEpisodesLimit
	}
	// One episode has no sample variance: its stderr would be NaN.
	if s.Episodes < 2 || s.Episodes > maxEpisodes {
		return s, fmt.Errorf("%w: want [2, %d], got %d", errEpisodesRange, maxEpisodes, s.Episodes)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s, nil
}

// Key returns the canonical cache key. Call only on normalized specs.
func (s EstimateSpec) Key() string {
	var sb strings.Builder
	sb.WriteString("est|")
	sb.WriteString(s.PlanSpec.Key())
	sb.WriteString("|policy=")
	sb.WriteString(s.Policy)
	sb.WriteString("|n=")
	sb.WriteString(strconv.Itoa(s.Episodes))
	sb.WriteString("|seed=")
	sb.WriteString(strconv.FormatUint(s.Seed, 10))
	return sb.String()
}

// Canonicalize returns the normalized spec under the hard episode
// ceiling (a router cannot know a replica's configured cap; a spec the
// gate canonicalizes but the replica rejects is answered 4xx by the
// replica either way).
func (s EstimateSpec) Canonicalize() (EstimateSpec, error) { return s.normalize(MaxEpisodesLimit) }

// RequestKey derives the cache key a replica answers body under on
// route ("plan" or "estimate"): it decodes the body exactly as the
// handlers do, canonicalizes the spec and keys it. csgate routes and
// csload shards by it, so the ring and the replicas' caches agree on
// key identity.
func RequestKey(route string, body []byte) (string, error) {
	switch route {
	case "plan":
		return requestKey[PlanSpec](body)
	case "estimate":
		return requestKey[EstimateSpec](body)
	}
	return "", fmt.Errorf("unknown route %q (want plan or estimate)", route)
}

func requestKey[S interface {
	Canonicalize() (S, error)
	Key() string
}](body []byte) (string, error) {
	var spec S
	if err := decodeSpec(bytes.NewReader(body), &spec); err != nil {
		return "", err
	}
	norm, err := spec.Canonicalize()
	if err != nil {
		return "", err
	}
	return norm.Key(), nil
}

// planOptions is the planner tuning the service uses: the library
// defaults (MaxPeriods 10k, ScanPoints 64) — the same question a
// csplan invocation would ask, so cached answers agree with the CLI.
func planOptions() core.PlanOptions { return core.PlanOptions{} }
