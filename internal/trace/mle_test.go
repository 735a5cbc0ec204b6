package trace

import (
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/rng"
)

func TestFitGeomDecreasingRecoversRate(t *testing.T) {
	truth, _ := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/32))
	obs := SampleAbsences(truth, 5000, rng.New(21))
	fit, err := FitGeomDecreasing(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Rate λ = ln a: relative error O(1/sqrt(n)) ≈ 1.4%.
	got, want := fit.LnA(), truth.LnA()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("rate = %g, want %g", got, want)
	}
}

func TestFitGeomDecreasingCensoredUnbiased(t *testing.T) {
	// Censoring must not bias the exponential MLE (its key property vs
	// naive mean-of-durations).
	truth, _ := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/16))
	obs := CensorAt(SampleAbsences(truth, 8000, rng.New(23)), 10) // heavy censoring
	fit, err := FitGeomDecreasing(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.LnA()-truth.LnA())/truth.LnA() > 0.06 {
		t.Errorf("censored rate = %g, want %g", fit.LnA(), truth.LnA())
	}
	// Contrast: a naive fit that ignores censoring (treating censored
	// durations as deaths) overestimates the rate.
	naiveDeaths := len(obs)
	exposure := 0.0
	for _, o := range obs {
		exposure += o.Duration
	}
	naiveRate := float64(naiveDeaths) / exposure
	if naiveRate <= fit.LnA() {
		t.Error("expected the censoring-ignorant rate to be biased upward")
	}
}

func TestFitUniformRecoversLifespan(t *testing.T) {
	truth, _ := lifefn.NewUniform(200)
	obs := SampleAbsences(truth, 3000, rng.New(29))
	fit, err := FitUniform(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.L-200)/200 > 0.02 {
		t.Errorf("L = %g, want 200", fit.L)
	}
}

func TestFitUniformCensored(t *testing.T) {
	truth, _ := lifefn.NewUniform(100)
	obs := CensorAt(SampleAbsences(truth, 4000, rng.New(31)), 80)
	fit, err := FitUniform(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.L-100)/100 > 0.08 {
		t.Errorf("censored L = %g, want 100", fit.L)
	}
}

func TestMLEErrorPaths(t *testing.T) {
	if _, err := FitGeomDecreasing(nil); err == nil {
		t.Error("empty input accepted")
	}
	allCensored := []Observation{{Duration: 5, Censored: true}}
	if _, err := FitGeomDecreasing(allCensored); err == nil {
		t.Error("all-censored accepted by exponential MLE")
	}
	if _, err := FitUniform(allCensored); err == nil {
		t.Error("all-censored accepted by uniform MLE")
	}
}
