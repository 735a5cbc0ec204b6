package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBrentPolynomial(t *testing.T) {
	// x³ - 2x - 5 has a root near 2.0945514815423265.
	f := func(x float64) float64 { return x*x*x - 2*x - 5 }
	root, err := Brent(f, 1, 3, RootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, 2.0945514815423265, 1e-10) {
		t.Errorf("root = %.16g", root)
	}
}

func TestBrentTranscendental(t *testing.T) {
	// cos(x) = x near 0.7390851332151607.
	root, err := Brent(func(x float64) float64 { return math.Cos(x) - x }, 0, 1, RootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, 0.7390851332151607, 1e-10) {
		t.Errorf("root = %.16g", root)
	}
	// One iteration cannot resolve the root to 1e-12.
	_, err = Brent(func(x float64) float64 { return math.Cos(x) - x }, 0, 1, RootOptions{MaxIter: 1})
	if !errors.Is(err, ErrMaxIterations) {
		t.Errorf("MaxIter 1: err = %v, want ErrMaxIterations", err)
	}
}

func TestBrentSteepSurvival(t *testing.T) {
	// The shape GenerateFrom inverts: survival curve minus a target.
	l := 1000.0
	target := 0.3
	root, err := Brent(func(x float64) float64 { return (1 - x/l) - target }, 0, l, RootOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(root, 700, 1e-8) {
		t.Errorf("root = %g, want 700", root)
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return 1 + x*x }, -5, 5, RootOptions{})
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
	// A reversed interval is rejected before f is evaluated.
	_, err = Brent(func(x float64) float64 { return x }, 1, -1, RootOptions{})
	if !errors.Is(err, ErrInvalidInterval) {
		t.Errorf("reversed interval: err = %v, want ErrInvalidInterval", err)
	}
}

func TestBrentNonFinite(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return math.NaN() }, 0, 1, RootOptions{})
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("err = %v, want ErrNonFinite", err)
	}
}

func TestBrentPropertyRandomCubics(t *testing.T) {
	// Property: for roots planted at r in (0, 1), Brent on [−1, 2]
	// recovers r for the monotone cubic (x−r)³ + (x−r).
	check := func(seed uint16) bool {
		r := float64(seed) / 65536.0
		f := func(x float64) float64 { d := x - r; return d*d*d + d }
		root, err := Brent(f, -1, 2, RootOptions{})
		return err == nil && almostEqual(root, r, 1e-8)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBracketRootGrowing(t *testing.T) {
	f := func(x float64) float64 { return 100 - x }
	lo, hi, err := BracketRootGrowing(f, 0, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < 100 && hi >= 100) {
		t.Errorf("bracket [%g, %g] does not contain 100", lo, hi)
	}
}

func TestBracketRootGrowingFarRoot(t *testing.T) {
	// Regression: the expansion loop once zeroed its width after the
	// first step and spun forever. The root here needs many doublings.
	f := func(x float64) float64 { return math.Exp(-x/1e5) - 0.5 }
	lo, hi, err := BracketRootGrowing(f, 0, 1, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e5 * math.Ln2
	if !(lo <= want && want <= hi) {
		t.Errorf("bracket [%g, %g] misses root %g", lo, hi, want)
	}
}

func TestBracketRootGrowingNoRoot(t *testing.T) {
	_, _, err := BracketRootGrowing(func(x float64) float64 { return 1 + x }, 0, 1, 100)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBracketRootGrowingBadStep(t *testing.T) {
	_, _, err := BracketRootGrowing(func(x float64) float64 { return x }, 0, 0, 10)
	if !errors.Is(err, ErrInvalidInterval) {
		t.Errorf("err = %v, want ErrInvalidInterval", err)
	}
}
