package trace

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/numeric"
)

// This file provides parametric alternatives to the non-parametric
// product-limit fit: maximum-likelihood estimation of the paper's
// standard life-function families from (possibly censored) absence
// observations. The paper imagines encapsulating trace data "by some
// well-behaved curve"; when the family is known, the parametric fit
// needs far fewer sessions for the same schedule regret (experiment
// E10's parametric rows).

// ErrUnfittable reports observations a family cannot explain.
var ErrUnfittable = errors.New("trace: observations unfittable for this family")

// FitGeomDecreasing fits p_a(t) = a^{-t} (exponential absences) by
// maximum likelihood. With deaths d_i and censorings c_j, the MLE of
// the rate λ = ln a is (#deaths) / (Σ all durations); censored
// durations contribute exposure but no event. At least one death is
// required.
func FitGeomDecreasing(obs []Observation) (lifefn.GeomDecreasing, error) {
	if len(obs) == 0 {
		return lifefn.GeomDecreasing{}, ErrNoObservations
	}
	deaths := 0
	exposure := 0.0
	for _, o := range obs {
		if !o.Censored {
			deaths++
		}
		exposure += o.Duration
	}
	if deaths == 0 || exposure <= 0 {
		return lifefn.GeomDecreasing{}, fmt.Errorf("%w: %d deaths over exposure %g", ErrUnfittable, deaths, exposure)
	}
	lambda := float64(deaths) / exposure
	return lifefn.NewGeomDecreasing(math.Exp(lambda))
}

// FitUniform fits p(t) = 1 - t/L by maximum likelihood. The density is
// 1/L on [0, L]; with censoring at levels below the maximum the
// likelihood is Π (1/L) · Π (1 - c_j/L), maximized numerically; with no
// censoring the MLE is simply the sample maximum (which underestimates
// L, so the standard (n+1)/n correction is applied).
func FitUniform(obs []Observation) (lifefn.Uniform, error) {
	if len(obs) == 0 {
		return lifefn.Uniform{}, ErrNoObservations
	}
	maxObs := 0.0
	deaths := 0
	var censored []float64
	for _, o := range obs {
		if o.Duration > maxObs {
			maxObs = o.Duration
		}
		if o.Censored {
			censored = append(censored, o.Duration)
		} else {
			deaths++
		}
	}
	if deaths == 0 || maxObs <= 0 {
		return lifefn.Uniform{}, fmt.Errorf("%w: no uncensored observations", ErrUnfittable)
	}
	if len(censored) == 0 {
		n := float64(deaths)
		return lifefn.NewUniform(maxObs * (n + 1) / n)
	}
	// Negative log-likelihood in L (must be >= maxObs):
	// deaths·ln L - Σ_censored ln(1 - c_j/L).
	nll := func(L float64) float64 {
		v := float64(deaths) * math.Log(L)
		for _, cj := range censored {
			rem := 1 - cj/L
			if rem <= 0 {
				return math.Inf(1)
			}
			v -= math.Log(rem)
		}
		return v
	}
	lo := maxObs * (1 + 1e-9)
	hi := maxObs * 100
	L, _, err := numeric.MaximizeScan(func(l float64) float64 { return -nll(l) }, lo, hi, 256, numeric.MaxOptions{Tol: 1e-9})
	if err != nil {
		return lifefn.Uniform{}, fmt.Errorf("trace: uniform MLE: %w", err)
	}
	return lifefn.NewUniform(L)
}
