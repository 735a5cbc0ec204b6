package lifefn

import (
	"math"

	"repro/internal/numeric"
)

// inverter is implemented by the life functions whose p⁻¹ has a closed
// form: the paper's Section-4 families.
type inverter interface {
	// inverse returns the t with P(t) = y, for y in (0, 1).
	//
	//cs:unit y=probability return=time
	inverse(y float64) float64
}

// Inverse solves P(T) = y for T >= from on the decreasing branch of l.
// For the four paper families (Uniform, Poly, GeomDecreasing,
// GeomIncreasing) and y in (0, 1) it evaluates p⁻¹ in closed form,
// whenever the result lies in [from, Horizon()]. Otherwise it runs
// Brent's method on [from, Horizon()] when the horizon is finite, else
// on a bracket grown geometrically from from with first step
// max(minStep, from/2)+1, up to 1e30; Brent locates roots to an
// absolute tolerance of 1e-13 plus 4 ulp. The planner's system (3.6)
// and every reclaim draw go through here.
func Inverse(l Life, y, from, minStep float64) (float64, error) {
	if inv, ok := l.(inverter); ok && y > 0 && y < 1 {
		if t := inv.inverse(y); t >= from && t <= l.Horizon() {
			return t, nil
		}
	}
	f := func(t float64) float64 { return l.P(t) - y }
	hi := l.Horizon()
	if math.IsInf(hi, 1) {
		lo, h, err := numeric.BracketRootGrowing(f, from, math.Max(minStep, from*0.5)+1, 1e30)
		if err != nil {
			return 0, err
		}
		from, hi = lo, h
		//lint:allow floatcmp bracket collapsed onto the root exactly
		if from == hi {
			return from, nil
		}
	}
	root, err := numeric.Brent(f, from, hi, numeric.RootOptions{AbsTol: 1e-13})
	if err != nil {
		return 0, err
	}
	return root, nil
}

// Draw maps a uniform variate u in (0, 1) to a lifetime whose survival
// function is l, by inverse-transform sampling: the T with P(T) = u.
// When the search fails it returns the search's upper end, Horizon()
// (+Inf for an unbounded life).
func Draw(l Life, u float64) float64 {
	t, err := Inverse(l, u, 0, 0)
	if err != nil {
		return l.Horizon()
	}
	return t
}

// Span returns the time range worth examining for l: its horizon when
// finite, else the first power of two s >= 1 with P(s) <= eps, capped
// at the first one past 1e12.
func Span(l Life, eps float64) float64 {
	if h := l.Horizon(); !math.IsInf(h, 1) {
		return h
	}
	s := 1.0
	for l.P(s) > eps && s < 1e12 {
		s *= 2
	}
	return s
}
