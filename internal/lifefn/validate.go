package lifefn

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// ValidateOptions tunes Validate's sampling.
type ValidateOptions struct {
	// Samples is the number of grid points checked; 256 if zero.
	Samples int
	// Span is the time range checked for unbounded-horizon functions;
	// if zero, Span(l, 1e-6) is used.
	Span float64
	// Tol is the tolerance for the model identities; 1e-6 if zero.
	Tol float64
}

// Validate checks that l satisfies the paper's model assumptions on a
// sample grid: P(0) = 1; P nonincreasing and within [0, 1]; P tending to
// zero at the horizon; Deriv nonpositive and consistent with a finite
// difference of P. It returns the first violation found, or nil.
func Validate(l Life, opt ValidateOptions) error {
	if opt.Samples <= 0 {
		opt.Samples = 256
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-6
	}
	if p0 := l.P(0); math.Abs(p0-1) > opt.Tol {
		return fmt.Errorf("lifefn: %s: P(0) = %g, want 1", l, p0)
	}
	span := opt.Span
	if span <= 0 {
		span = Span(l, 1e-6)
	}
	prev := l.P(0)
	for i := 1; i <= opt.Samples; i++ {
		t := span * float64(i) / float64(opt.Samples)
		p := l.P(t)
		if math.IsNaN(p) || p < -opt.Tol || p > 1+opt.Tol {
			return fmt.Errorf("lifefn: %s: P(%g) = %g outside [0, 1]", l, t, p)
		}
		if p > prev+opt.Tol {
			return fmt.Errorf("lifefn: %s: P increases from %g to %g at t=%g", l, prev, p, t)
		}
		d := l.Deriv(t)
		if d > opt.Tol {
			return fmt.Errorf("lifefn: %s: Deriv(%g) = %g > 0", l, t, d)
		}
		// Interior derivative consistency check (skip kinks at the ends).
		if i < opt.Samples && p > 1e-6 && p < 1-1e-6 {
			fd := numeric.Derivative(l.P, t)
			scale := math.Abs(d) + math.Abs(fd) + 1e-9
			if math.Abs(d-fd)/scale > 1e-3 {
				return fmt.Errorf("lifefn: %s: Deriv(%g) = %g disagrees with finite difference %g", l, t, d, fd)
			}
		}
		prev = p
	}
	if end := l.P(span); end > 1e-3 {
		return fmt.Errorf("lifefn: %s: P(%g) = %g has not decayed toward 0", l, span, end)
	}
	return nil
}

// MeanLifetime returns the expected reclaim time E[R] = ∫ P(t) dt,
// integrated to Span(l, 1e-6): the horizon when finite.
func MeanLifetime(l Life) (float64, error) {
	v, err := numeric.Integrate(l.P, 0, Span(l, 1e-6), numeric.QuadOptions{Tol: 1e-10})
	if err != nil {
		return v, fmt.Errorf("lifefn: mean lifetime of %s: %w", l, err)
	}
	return v, nil
}
