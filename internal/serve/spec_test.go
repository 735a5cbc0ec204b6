package serve

import (
	"strings"
	"testing"
)

func TestPlanSpecDefaultsAndKey(t *testing.T) {
	spec, err := PlanSpec{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Life != "uniform" || spec.Lifespan != 1000 || spec.C != 1 {
		t.Errorf("defaults wrong: %+v", spec)
	}
	if got := spec.Key(); got != "plan|life=uniform|L=1000|hl=0|d=0|c=1" {
		t.Errorf("key = %q", got)
	}
}

// Requests that differ only in parameters their life function ignores
// must canonicalize to the same key; parameters that matter must keep
// keys apart.
func TestPlanSpecCanonicalizationMergesIrrelevantFields(t *testing.T) {
	a, err := PlanSpec{Life: "uniform", Lifespan: 500, HalfLife: 99, D: 7}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanSpec{Life: "uniform", Lifespan: 500, HalfLife: 3, D: 1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("irrelevant fields split the key: %q vs %q", a.Key(), b.Key())
	}
	c, err := PlanSpec{Life: "uniform", Lifespan: 501}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Error("different lifespans share a key")
	}
	d, err := PlanSpec{Life: "geomdec", Lifespan: 500, HalfLife: 32}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Key(), "|L=0|") {
		t.Errorf("geomdec key should drop the lifespan: %q", d.Key())
	}
}

// TimeoutMS must not participate in the cache key: the same question
// with a different deadline is still the same question.
func TestPlanSpecTimeoutNotInKey(t *testing.T) {
	a, _ := PlanSpec{TimeoutMS: 50}.normalize()
	b, _ := PlanSpec{TimeoutMS: 5000}.normalize()
	if a.Key() != b.Key() {
		t.Errorf("timeout leaked into the key: %q vs %q", a.Key(), b.Key())
	}
}

func TestPlanSpecValidation(t *testing.T) {
	cases := []PlanSpec{
		{Life: "weibull"},      // not served
		{C: -1},                // bad overhead
		{Lifespan: -5},         // bad lifespan
		{Life: "poly", D: 200}, // degree over cap
		{Lifespan: 1e12},       // over cap
		{Life: "geomdec", HalfLife: -1},
		{TimeoutMS: -3},
	}
	for _, spec := range cases {
		if _, err := spec.normalize(); err == nil {
			t.Errorf("spec %+v should not validate", spec)
		}
	}
}

func TestEstimateSpecDefaultsAndKey(t *testing.T) {
	spec, err := EstimateSpec{}.normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Policy != "guideline" || spec.Episodes != 100_000 || spec.Seed != 1 {
		t.Errorf("defaults wrong: %+v", spec)
	}
	want := "est|plan|life=uniform|L=1000|hl=0|d=0|c=1|policy=guideline|n=100000|seed=1"
	if got := spec.Key(); got != want {
		t.Errorf("key = %q, want %q", got, want)
	}
}

func TestEstimateSpecEpisodeCap(t *testing.T) {
	if _, err := (EstimateSpec{Episodes: 2_000_001}).normalize(2_000_000); err == nil {
		t.Error("episodes over the cap should not validate")
	}
	if _, err := (EstimateSpec{Episodes: -5}).normalize(0); err == nil {
		t.Error("negative episodes should not validate")
	}
	// One episode has no sample variance (a NaN stderr the encoder
	// cannot write), so the minimum is two, for the gate as well.
	if _, err := (EstimateSpec{Episodes: 1}).Canonicalize(); err == nil {
		t.Error("one episode should not validate")
	}
	if _, err := (EstimateSpec{Episodes: 2}).normalize(0); err != nil {
		t.Errorf("two episodes rejected: %v", err)
	}
	if _, err := (EstimateSpec{Episodes: 1_999_999}).normalize(2_000_000); err != nil {
		t.Errorf("episodes under the cap rejected: %v", err)
	}
}

// The life the spec builds must round-trip through the shared nowsim
// vocabulary for every served family.
func TestPlanSpecBuildLifeAllFamilies(t *testing.T) {
	for _, spec := range []PlanSpec{
		{Life: "uniform", Lifespan: 100},
		{Life: "poly", Lifespan: 100, D: 3},
		{Life: "geomdec", HalfLife: 16},
		{Life: "geominc", Lifespan: 64},
	} {
		n, err := spec.normalize()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if _, err := n.buildLife(); err != nil {
			t.Errorf("%+v: buildLife: %v", spec, err)
		}
	}
}
