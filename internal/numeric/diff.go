package numeric

import "math"

// Derivative estimates f'(x) with a central difference extrapolated by
// one Richardson step, which removes the leading O(h²) error term. The
// step is scaled to x's magnitude. It is used to differentiate empirical
// (trace-fitted) life functions for which no analytic derivative exists.
func Derivative(f func(float64) float64, x float64) float64 {
	h := diffStep(x)
	d1 := central(f, x, h)
	d2 := central(f, x, h/2)
	return (4*d2 - d1) / 3
}

func central(f func(float64) float64, x, h float64) float64 {
	return (f(x+h) - f(x-h)) / (2 * h)
}

func diffStep(x float64) float64 {
	// cbrt(eps) balances truncation against rounding for central stencils.
	const cbrtEps = 6.055454452393343e-06
	scale := math.Abs(x)
	if scale < 1 {
		scale = 1
	}
	return cbrtEps * scale
}
