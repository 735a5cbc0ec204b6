// Package numeric provides the numerical routines the cycle-stealing
// library is built on: bracketed root finding, one-dimensional and
// multi-dimensional optimization, adaptive quadrature, monotone cubic
// interpolation, finite differences, and compensated summation.
//
// Everything here is deterministic and allocation-light; the package
// exists because the repository is stdlib-only and Go's standard library
// has no numerical analysis support.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Common errors returned by the solvers in this package.
var (
	// ErrNoBracket reports that the supplied interval does not bracket a
	// root (the function has the same sign at both endpoints).
	ErrNoBracket = errors.New("numeric: interval does not bracket a root")
	// ErrMaxIterations reports that a solver exhausted its iteration
	// budget before reaching the requested tolerance.
	ErrMaxIterations = errors.New("numeric: maximum iterations exceeded")
	// ErrInvalidInterval reports a degenerate or reversed interval.
	ErrInvalidInterval = errors.New("numeric: invalid interval")
	// ErrNonFinite reports that a function evaluation produced NaN or Inf.
	ErrNonFinite = errors.New("numeric: non-finite function value")
)

// RootOptions configures the bracketed root finders.
type RootOptions struct {
	// AbsTol is the absolute tolerance on the root location.
	// If zero, a default of 1e-12 is used.
	AbsTol float64
	// RelTol is the relative tolerance on the root location.
	// If zero, a default of 4*machine-epsilon is used.
	RelTol float64
	// MaxIter bounds the number of iterations. If zero, 200 is used.
	MaxIter int
}

func (o RootOptions) withDefaults() RootOptions {
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-12
	}
	if o.RelTol <= 0 {
		o.RelTol = 4 * math.Nextafter(1, 2) // ~4 ulp
		o.RelTol -= 4                       // 4*(1+eps) - 4 = 4*eps
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	return o
}

// Brent finds a root of f in the bracketing interval [a, b] using
// Brent's method (inverse quadratic interpolation with secant and
// bisection safeguards). It converges superlinearly on smooth functions
// while retaining bisection's robustness.
func Brent(f func(float64) float64, a, b float64, opt RootOptions) (float64, error) {
	opt = opt.withDefaults()
	if !(a < b) {
		return 0, fmt.Errorf("%w: [%g, %g]", ErrInvalidInterval, a, b)
	}
	fa, fb := f(a), f(b)
	if !isFinite(fa) || !isFinite(fb) {
		return 0, ErrNonFinite
	}
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	// Arrange |f(b)| <= |f(a)|: b is the best iterate.
	if math.Abs(fa) < math.Abs(fb) {
		a, b = b, a
		fa, fb = fb, fa
	}
	c, fc := a, fa // previous iterate
	d := b - a     // step before last
	e := d         // last step
	for i := 0; i < opt.MaxIter; i++ {
		if fb == 0 {
			return b, nil
		}
		tol := opt.AbsTol + opt.RelTol*math.Abs(b)
		m := 0.5 * (c - b)
		if math.Abs(m) <= tol {
			return b, nil
		}
		if math.Abs(e) < tol || math.Abs(fa) <= math.Abs(fb) {
			// Bisection step.
			d, e = m, m
		} else {
			s := fb / fa
			var p, q float64
			//lint:allow floatcmp Brent picks secant vs IQI on exact bracket equality
			if a == c {
				// Secant (linear interpolation).
				p = 2 * m * s
				q = 1 - s
			} else {
				// Inverse quadratic interpolation.
				qa := fa / fc
				r := fb / fc
				p = s * (2*m*qa*(qa-r) - (b-a)*(r-1))
				q = (qa - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			} else {
				p = -p
			}
			if 2*p < math.Min(3*m*q-math.Abs(tol*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = m, m
			}
		}
		a, fa = b, fb
		if math.Abs(d) > tol {
			b += d
		} else if m > 0 {
			b += tol
		} else {
			b -= tol
		}
		fb = f(b)
		if !isFinite(fb) {
			return 0, ErrNonFinite
		}
		if (fb > 0) == (fc > 0) {
			// b and c no longer bracket; move c to the old a.
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			// Ensure b remains the best iterate.
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
	}
	return b, ErrMaxIterations
}

// BracketRootGrowing expands an interval [a, a+step] geometrically to the
// right until it brackets a sign change of f or width exceeds max-a.
// It returns the bracketing interval. Useful when only a lower endpoint
// of the root's location is known.
func BracketRootGrowing(f func(float64) float64, a, step, max float64) (lo, hi float64, err error) {
	if step <= 0 {
		return 0, 0, fmt.Errorf("%w: nonpositive step %g", ErrInvalidInterval, step)
	}
	fa := f(a)
	if !isFinite(fa) {
		return 0, 0, ErrNonFinite
	}
	if fa == 0 {
		return a, a, nil
	}
	lo = a
	width := step
	for hi = a + step; hi <= max; hi = lo + width {
		fhi := f(hi)
		if !isFinite(fhi) {
			return 0, 0, ErrNonFinite
		}
		if fhi == 0 || math.Signbit(fhi) != math.Signbit(fa) {
			return lo, hi, nil
		}
		lo, fa = hi, fhi
		width *= 2
	}
	return 0, 0, fmt.Errorf("%w: no sign change in [%g, %g]", ErrNoBracket, a, max)
}

func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
