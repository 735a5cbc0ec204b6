package optimal

import (
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// GroundTruthOptions configures the scenario-agnostic optimizer.
type GroundTruthOptions struct {
	// MaxPeriods caps the period counts tried. If zero, the Corollary
	// 5.3 bound is used for finite horizons and 64 otherwise.
	MaxPeriods int
	// Sweeps is the number of coordinate-ascent passes per period
	// count. If zero, 40 is used.
	Sweeps int
	// Polish enables a Nelder–Mead refinement after coordinate ascent.
	Polish bool
}

// GroundTruth maximizes expected work E(S; p) directly over period
// vectors, with no appeal to the paper's guidelines: for each candidate
// period count m it runs cyclic coordinate ascent (each period optimized
// by bracketed golden-section search with the others fixed), optionally
// polished by Nelder–Mead, and returns the best schedule found. It is
// the reference the guideline schedules are measured against when no
// [BCLR97] closed form applies.
//
// The search is heuristic (the objective need not be concave in the
// period vector) but deterministic; on the three [BCLR97] scenarios it
// reproduces the known optima to several digits, which the test suite
// pins down.
func GroundTruth(l lifefn.Life, c float64, opt GroundTruthOptions) (Result, error) {
	if !(c > 0) {
		return Result{}, fmt.Errorf("optimal: overhead must be positive, got %g", c)
	}
	horizon := l.Horizon()
	span := lifefn.Span(l, 1e-12)
	if span <= c {
		return Result{}, nil
	}
	mMax := opt.MaxPeriods
	if mMax <= 0 {
		if math.IsInf(horizon, 1) {
			mMax = 64
		} else {
			mMax = int(math.Ceil(math.Sqrt(2*span/c+0.25)+0.5)) + 2
		}
	}
	sweeps := opt.Sweeps
	if sweeps <= 0 {
		sweeps = 40
	}

	eval := func(periods []float64) float64 {
		s, err := sched.New(periods...)
		if err != nil {
			return math.Inf(-1)
		}
		return sched.ExpectedWork(s, l, c)
	}

	best := Result{}
	stale := 0 // consecutive period counts with no improvement
	for m := 1; m <= mMax; m++ {
		periods := initialGuess(l, c, span, m)
		if periods == nil {
			continue
		}
		coordinateAscent(periods, eval, l, c, span, sweeps)
		if opt.Polish && m <= 24 {
			periods = nelderMeadPolish(periods, eval, c)
		}
		s, err := sched.New(periods...)
		if err != nil {
			continue
		}
		s = sched.Normalize(s, c)
		r := newResult(s, l, c)
		if r.ExpectedWork > best.ExpectedWork+1e-12 {
			best = r
			stale = 0
		} else {
			stale++
			if stale >= 6 && best.ExpectedWork > 0 {
				break // adding periods stopped helping
			}
		}
	}
	return best, nil
}

// initialGuess seeds m periods: a front-loaded geometric split of the
// usable span, every period strictly longer than c.
func initialGuess(l lifefn.Life, c, span float64, m int) []float64 {
	usable := span
	if usable <= float64(m)*c {
		return nil
	}
	periods := make([]float64, m)
	// Weights 2^{-i} front-load early periods, mimicking the decreasing
	// shape optimal schedules have for concave life functions.
	totalW := 0.0
	for i := 0; i < m; i++ {
		totalW += math.Pow(2, -float64(i)/4)
	}
	for i := 0; i < m; i++ {
		w := math.Pow(2, -float64(i)/4) / totalW
		periods[i] = c + (usable-float64(m)*c)*w
	}
	return periods
}

// coordinateAscent optimizes each period in turn by golden-section
// search on (c, remaining span], cycling until a sweep yields no
// improvement.
func coordinateAscent(periods []float64, eval func([]float64) float64, l lifefn.Life, c, span float64, sweeps int) {
	cur := eval(periods)
	for s := 0; s < sweeps; s++ {
		improved := false
		for i := range periods {
			others := 0.0
			for j, t := range periods {
				if j != i {
					others += t
				}
			}
			hi := span - others
			if math.IsInf(l.Horizon(), 1) {
				hi = periods[i] * 4 // local search window for unbounded horizons
			}
			if hi <= c {
				continue
			}
			orig := periods[i]
			x, fx, err := numeric.MaximizeScan(func(t float64) float64 {
				periods[i] = t
				return eval(periods)
			}, c*(1+1e-12), hi, 24, numeric.MaxOptions{Tol: 1e-11})
			if err != nil || fx <= cur+1e-13 {
				periods[i] = orig
				continue
			}
			periods[i] = x
			cur = fx
			improved = true
		}
		if !improved {
			break
		}
	}
}

// nelderMeadPolish refines the period vector in an unconstrained
// parametrization t_i = c + exp(x_i), which keeps every period
// productive by construction.
func nelderMeadPolish(periods []float64, eval func([]float64) float64, c float64) []float64 {
	x0 := make([]float64, len(periods))
	for i, t := range periods {
		x0[i] = math.Log(math.Max(t-c, 1e-9))
	}
	decoded := make([]float64, len(periods))
	decode := func(x []float64) []float64 {
		for i, v := range x {
			decoded[i] = c + math.Exp(v)
		}
		return decoded
	}
	xBest, _ := numeric.NelderMead(func(x []float64) float64 {
		return -eval(decode(x))
	}, x0, numeric.NelderMeadOptions{Tol: 1e-12, Step: 0.05})
	out := make([]float64, len(periods))
	copy(out, decode(xBest))
	if eval(out) >= eval(periods) {
		return out
	}
	return periods
}
