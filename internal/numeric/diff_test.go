package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDerivativeExp(t *testing.T) {
	for _, x := range []float64{0, 0.5, 1, 10, 100} {
		got := Derivative(math.Exp, x)
		want := math.Exp(x)
		if math.Abs(got-want)/want > 1e-8 {
			t.Errorf("d/dx exp at %g = %.12g, want %.12g", x, got, want)
		}
	}
}

func TestDerivativePropertyPolynomials(t *testing.T) {
	// Property: derivative of ax² + bx at random points matches 2ax + b.
	check := func(ai, bi, xi int8) bool {
		a, b, x := float64(ai)/16, float64(bi)/16, float64(xi)/16
		f := func(v float64) float64 { return a*v*v + b*v }
		got := Derivative(f, x)
		want := 2*a*x + b
		return math.Abs(got-want) <= 1e-7*(1+math.Abs(want))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
