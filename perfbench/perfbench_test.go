package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/nowsim"
	"repro/internal/serve"
)

// corpusPrefix is how many closed-loop requests the corpus tests draw.
const corpusPrefix = 400

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed uint64) []byte {
			c, err := w.gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return encodeCorpus(c, corpusPrefix)
		}
		a, b, other := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different corpora", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generated the same corpus", w.name)
		}
	}
}

// distinctRequests lists a corpus's distinct requests: the warm set and
// a prefix of the closed-loop stream.
func distinctRequests(c *corpus) []request {
	seen := map[string]bool{}
	var out []request
	add := func(req request) {
		if !seen[req.Key] {
			seen[req.Key] = true
			out = append(out, req)
		}
	}
	for _, req := range c.warm {
		add(req)
	}
	for i := 0; i < corpusPrefix; i++ {
		add(c.next(i))
	}
	return out
}

// TestSeedTrafficPlans runs every distinct generated request of seeds
// 1-5 through the decode, canonicalization and planning steps serve
// runs before any Monte-Carlo, so the seed traffic holds no 4xx.
func TestSeedTrafficPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("plans a few thousand specs")
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, w := range workloads {
			c, err := w.gen(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			for _, req := range distinctRequests(c) {
				var es serve.EstimateSpec
				dec := json.NewDecoder(bytes.NewReader(req.Body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&es); err != nil {
					t.Fatalf("%s seed %d: %s does not decode: %v", w.name, seed, req.Body, err)
				}
				canon, err := es.Canonicalize()
				if err != nil {
					t.Fatalf("%s seed %d: %s does not canonicalize: %v", w.name, seed, req.Body, err)
				}
				policy := "guideline"
				if req.Route == "estimate" {
					policy = canon.Policy
					if canon.Key() != req.Key {
						t.Fatalf("%s seed %d: key %q, canonical %q", w.name, seed, req.Key, canon.Key())
					}
					if policy == "progressive" && req.Episodes > progressiveEpisodeCap {
						t.Fatalf("%s seed %d: progressive at %d episodes", w.name, seed, req.Episodes)
					}
				} else if canon.PlanSpec.Key() != req.Key {
					t.Fatalf("%s seed %d: key %q, canonical %q", w.name, seed, req.Key, canon.PlanSpec.Key())
				}
				if _, err := nowsim.ParsePolicy(policy, lifeOf(es.PlanSpec), canon.C, core.PlanOptions{}); err != nil {
					t.Fatalf("%s seed %d: %s does not plan: %v", w.name, seed, req.Body, err)
				}
			}
		}
	}
}

// TestIdentityCheckOnEveryFamily runs guideline estimates as serve
// computes them, on every family at the smallest episode count the
// workloads send, and checks that the five-sigma E(S;p) test passes on
// them and fails on a mean moved by six standard errors.
func TestIdentityCheckOnEveryFamily(t *testing.T) {
	for _, family := range families {
		for i := 0; i < 10; i++ {
			req, err := estimateRequest(drawSpec(stream(1, 0, i), family), "guideline", estimateEpisodes[0], uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			var es serve.EstimateSpec
			if err := json.Unmarshal(req.Body, &es); err != nil {
				t.Fatal(err)
			}
			if es, err = es.Canonicalize(); err != nil {
				t.Fatal(err)
			}
			life := lifeOf(es.PlanSpec)
			pol, err := nowsim.ParsePolicy("guideline", life, es.C, core.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := nowsim.MonteCarloCtx(context.Background(), pol.Factory(), nowsim.LifeOwner{Life: life}, es.C, es.Episodes, es.Seed, nowsim.Obs{})
			if err != nil {
				t.Fatal(err)
			}
			e := serve.EstimateResponse{Key: req.Key, Episodes: res.Episodes, AnalyticE: &pol.Plan.ExpectedWork,
				Work: serve.Band{Mean: res.Work.Mean, StdErr: res.Work.StdErr, N: res.Work.N}}
			if err := checkEstimate(&req, e); err != nil {
				t.Errorf("%s: %v", family, err)
			}
			_, sd, err := guidelineWork(&req)
			if err != nil {
				t.Fatal(err)
			}
			e.Work.Mean = pol.Plan.ExpectedWork + 6*sd/math.Sqrt(float64(res.Episodes))
			if checkEstimate(&req, e) == nil {
				t.Errorf("%s: a mean six standard errors off passed", family)
			}
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(endToEnd) > 16 || len(layerMetrics) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(layerMetrics))
	}
	seen := map[string]bool{}
	check := func(kind string, got []metric, name, unit, better string, i int) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: invalid or repeated name", kind, name)
		}
		seen[name] = true
		if i >= len(got) || got[i].Name != name || got[i].Unit != unit || got[i].Better != better {
			t.Errorf("%s metric %d: program has %s (%s, %s), BENCHMARK.json disagrees", kind, i, name, unit, better)
		}
	}
	for i, e := range endToEnd {
		check("end-to-end", b.EndToEnd, e.name, e.unit, e.better, i)
		if i < len(b.EndToEnd) && !(b.EndToEnd[i].Bound > 0 && b.EndToEnd[i].Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.name, b.EndToEnd[i].Bound)
		}
	}
	for i, l := range layerMetrics {
		check("per-layer", b.PerLayer, l.name, l.unit, l.better, i)
		if l.moves == "" {
			t.Errorf("%s: no prediction of the end-to-end metric it moves", l.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(layerMetrics))
	}
	for _, bw := range b.Workloads {
		if w, ok := findWorkload(bw.Name); !ok || w.why != bw.Why {
			t.Errorf("BENCHMARK.json workload %q (%q) is not a workload of the program", bw.Name, bw.Why)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

func TestPhasesParsesServerTiming(t *testing.T) {
	got := phases("cache;dur=0.012;desc=miss, queue;dur=0.400, compute;dur=5.200;alloc=1380, mc;dur=5.100, total;dur=5.700")
	want := map[string]float64{"cache": 0.012, "queue": 0.4, "compute": 5.2, "mc": 5.1, "total": 5.7}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %g, want %g", k, got[k], v)
		}
	}
}

// encodeCorpus serializes the warm set and the first n requests — the
// bytes the determinism tests compare.
func encodeCorpus(c *corpus, n int) []byte {
	var buf bytes.Buffer
	put := func(req request) {
		buf.WriteString(req.Route)
		_ = binary.Write(&buf, binary.LittleEndian, int64(req.Target))
		buf.Write(req.Body)
		buf.WriteByte('\n')
	}
	for _, req := range c.warm {
		put(req)
	}
	for i := 0; i < n; i++ {
		put(c.next(i))
	}
	return buf.Bytes()
}
