package core

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// This file carries the explicit t0 bounds that Section 4 of the paper
// derives from Theorems 3.2/3.3 for its life-function families. The
// experiments set them beside the generic bracket of bounds.go; the
// family recurrences obtained from system (3.6), which cross-check the
// generic forward induction, live in this package's tests.

// T0Bounds is an explicit closed-form bracket on the optimal initial
// period length for one of the Section 4 families.
type T0Bounds struct {
	Lo, Hi float64
}

// UniformT0Bounds is the explicit bracket (4.4) for the uniform-risk
// scenario: sqrt(cL) <= t0 <= 2·sqrt(cL) + 1. The true optimum (4.5)
// is sqrt(2cL) + low-order terms, inside the bracket.
func UniformT0Bounds(c, l float64) T0Bounds {
	r := math.Sqrt(c * l)
	return T0Bounds{Lo: r, Hi: 2*r + 1}
}

// PolyT0Bounds is the simplified Section 4.1 bracket for p_{d,L}:
// (c/d)^{1/(d+1)}·L^{d/(d+1)} <= t0 <= 2·(c/d)^{1/(d+1)}·L^{d/(d+1)} + 1.
func PolyT0Bounds(d int, c, l float64) T0Bounds {
	dd := float64(d)
	base := math.Pow(c/dd, 1/(dd+1)) * math.Pow(l, dd/(dd+1))
	return T0Bounds{Lo: base, Hi: 2*base + 1}
}

// GeomDecT0Bounds is the Section 4.2 bracket for p_a:
// sqrt(c²/4 + c/ln a) + c/2 <= t0 <= c + 1/ln a. The paper notes the
// upper bound is remarkably close to the optimal value.
func GeomDecT0Bounds(a, c float64) T0Bounds {
	lna := math.Log(a)
	return T0Bounds{
		Lo: math.Sqrt(c*c/4+c/lna) + c/2,
		Hi: c + 1/lna,
	}
}

// GeomIncT0Window solves the Section 4.3 window
// 2^{t0/2}·t0² <= 2^L <= 2^{t0}·t0², i.e.
// t0 + 2·log2(t0) >= L and t0/2 + 2·log2(t0) <= L, for the implied
// bracket on t0. Both boundary equations are solved numerically.
func GeomIncT0Window(l float64) (T0Bounds, error) {
	// Lower edge: t + 2·log2 t = L.
	lo, err := solveIncreasing(func(t float64) float64 { return t + 2*math.Log2(t) - l }, l)
	if err != nil {
		return T0Bounds{}, fmt.Errorf("core: geominc t0 window lower edge: %w", err)
	}
	// Upper edge: t/2 + 2·log2 t = L.
	hi, err := solveIncreasing(func(t float64) float64 { return t/2 + 2*math.Log2(t) - l }, 2*l)
	if err != nil {
		return T0Bounds{}, fmt.Errorf("core: geominc t0 window upper edge: %w", err)
	}
	return T0Bounds{Lo: lo, Hi: hi}, nil
}

// solveIncreasing finds the root of a strictly increasing f on
// (tiny, max].
func solveIncreasing(f func(float64) float64, max float64) (float64, error) {
	return numeric.Brent(f, 1e-9, max, numeric.RootOptions{AbsTol: 1e-12})
}
