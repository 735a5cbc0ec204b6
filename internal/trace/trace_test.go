package trace

import (
	"errors"
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/rng"
)

func TestSampleAbsencesWithinSupport(t *testing.T) {
	u, _ := lifefn.NewUniform(60)
	obs := SampleAbsences(u, 500, rng.New(1))
	if len(obs) != 500 {
		t.Fatal("wrong count")
	}
	for _, o := range obs {
		if o.Duration < 0 || o.Duration > 60 || o.Censored {
			t.Fatalf("bad observation %+v", o)
		}
	}
}

func TestProductLimitUncensoredIsECDF(t *testing.T) {
	// Without censoring, Kaplan–Meier reduces to 1 - ECDF.
	obs := []Observation{{Duration: 1}, {Duration: 2}, {Duration: 3}, {Duration: 4}}
	times, surv, err := ProductLimit(obs)
	if err != nil {
		t.Fatal(err)
	}
	wantS := []float64{0.75, 0.5, 0.25, 0}
	for i := range times {
		if math.Abs(surv[i]-wantS[i]) > 1e-12 {
			t.Errorf("S(%g) = %g, want %g", times[i], surv[i], wantS[i])
		}
	}
}

func TestProductLimitTies(t *testing.T) {
	obs := []Observation{{Duration: 2}, {Duration: 2}, {Duration: 5}}
	times, surv, err := ProductLimit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("times = %v", times)
	}
	if math.Abs(surv[0]-1.0/3) > 1e-12 || surv[1] != 0 {
		t.Errorf("surv = %v", surv)
	}
}

func TestProductLimitCensoring(t *testing.T) {
	// Classic textbook check: censored subjects leave the risk set
	// without forcing a survival drop.
	obs := []Observation{
		{Duration: 1}, {Duration: 2, Censored: true}, {Duration: 3},
	}
	times, surv, err := ProductLimit(obs)
	if err != nil {
		t.Fatal(err)
	}
	// At t=1: 3 at risk, 1 death → 2/3. At t=3: 1 at risk → 0.
	if len(times) != 2 || math.Abs(surv[0]-2.0/3) > 1e-12 || surv[1] != 0 {
		t.Errorf("times=%v surv=%v", times, surv)
	}
}

func TestProductLimitAllCensored(t *testing.T) {
	obs := []Observation{{Duration: 1, Censored: true}}
	if _, _, err := ProductLimit(obs); err == nil {
		t.Error("all-censored trace accepted")
	}
	if _, _, err := ProductLimit(nil); !errors.Is(err, ErrNoObservations) {
		t.Error("empty trace accepted")
	}
}

func TestFitLifeRecoversUniform(t *testing.T) {
	u, _ := lifefn.NewUniform(100)
	obs := SampleAbsences(u, 4000, rng.New(7))
	fit, err := FitLife(obs, FitOptions{Knots: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := lifefn.Validate(fit, lifefn.ValidateOptions{Span: lifefn.Span(fit, 1e-3)}); err != nil {
		t.Errorf("fitted life invalid: %v", err)
	}
	// KS distance to the truth should be sampling-noise sized:
	// O(1/sqrt(n)) ≈ 0.016; allow 3x.
	if d := KSDistance(fit, u, 100, 400); d > 0.05 {
		t.Errorf("KS distance = %g", d)
	}
}

func TestFitLifeRecoversGeomDecreasing(t *testing.T) {
	a := math.Pow(2, 1.0/16)
	g, _ := lifefn.NewGeomDecreasing(a)
	obs := SampleAbsences(g, 4000, rng.New(11))
	fit, err := FitLife(obs, FitOptions{Knots: 48})
	if err != nil {
		t.Fatal(err)
	}
	if d := KSDistance(fit, g, 64, 400); d > 0.05 {
		t.Errorf("KS distance = %g", d)
	}
}

func TestFitLifeImprovesWithSampleSize(t *testing.T) {
	u, _ := lifefn.NewUniform(50)
	dist := func(n int) float64 {
		obs := SampleAbsences(u, n, rng.New(99))
		fit, err := FitLife(obs, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return KSDistance(fit, u, 50, 300)
	}
	small, large := dist(100), dist(10000)
	if large >= small {
		t.Errorf("fit did not improve with more data: %g -> %g", small, large)
	}
}

func TestFitLifeCensored(t *testing.T) {
	// Censor the top of the distribution; the fit must stay a valid
	// life function with an unbounded (exponentially extended) tail.
	g, _ := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/8))
	obs := CensorAt(SampleAbsences(g, 3000, rng.New(13)), 20)
	fit, err := FitLife(obs, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(fit.Horizon(), 1) {
		t.Errorf("horizon = %g, want unbounded after censoring", fit.Horizon())
	}
	// Inside the observed window the fit should still be close.
	if d := KSDistance(fit, g, 18, 200); d > 0.06 {
		t.Errorf("KS distance inside window = %g", d)
	}
}

func TestCensorAt(t *testing.T) {
	obs := []Observation{{Duration: 5}, {Duration: 15}}
	cut := CensorAt(obs, 10)
	if cut[0].Censored || !cut[1].Censored || cut[1].Duration != 10 {
		t.Errorf("censoring wrong: %+v", cut)
	}
	if obs[1].Censored {
		t.Error("CensorAt mutated input")
	}
}
