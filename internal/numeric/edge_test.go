package numeric

import (
	"errors"
	"math"
	"testing"
)

func TestBrentRootAtEndpoints(t *testing.T) {
	r, err := Brent(func(x float64) float64 { return x }, 0, 1, RootOptions{})
	if err != nil || r != 0 {
		t.Errorf("left endpoint root: %g, %v", r, err)
	}
	r, err = Brent(func(x float64) float64 { return x - 1 }, 0, 1, RootOptions{})
	if err != nil || r != 1 {
		t.Errorf("right endpoint root: %g, %v", r, err)
	}
}

func TestMaximizeGoldenInvalidInterval(t *testing.T) {
	if _, _, err := MaximizeGolden(func(x float64) float64 { return x }, 2, 1, MaxOptions{}); err == nil {
		t.Error("reversed interval accepted")
	}
	if _, _, err := MaximizeScan(func(x float64) float64 { return x }, 2, 1, 8, MaxOptions{}); err == nil {
		t.Error("reversed interval accepted by scan")
	}
}

func TestMaximizeScanDegenerate(t *testing.T) {
	x, fx, err := MaximizeScan(func(x float64) float64 { return -x * x }, 3, 3, 8, MaxOptions{})
	if err != nil || x != 3 || fx != -9 {
		t.Errorf("degenerate scan: (%g, %g, %v)", x, fx, err)
	}
	// n < 2 is clamped, not rejected.
	if _, _, err := MaximizeScan(func(x float64) float64 { return -x * x }, 0, 1, 1, MaxOptions{}); err != nil {
		t.Errorf("n=1 rejected: %v", err)
	}
}

func TestMaximizeScanGuardPrefersGridWhenGoldenWorse(t *testing.T) {
	// A spike the golden refinement can converge away from: the guard
	// must return the better grid sample.
	spike := func(x float64) float64 {
		if math.Abs(x-0.5) < 1e-4 {
			return 10
		}
		return math.Sin(20 * x)
	}
	// Grid with a point at exactly 0.5 (n divides evenly).
	x, fx, err := MaximizeScan(spike, 0, 1, 10, MaxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fx < 10 {
		t.Errorf("lost the spike: argmax %g value %g", x, fx)
	}
}

func TestIntegrateDepthExhausted(t *testing.T) {
	// A pathological oscillator with depth 1 cannot meet 1e-12.
	f := func(x float64) float64 { return math.Sin(1000 * x) }
	_, err := Integrate(f, 0, 10, QuadOptions{Tol: 1e-14, MaxDepth: 2})
	if !errors.Is(err, ErrMaxIterations) {
		t.Errorf("err = %v, want depth exhaustion", err)
	}
}

func TestNelderMeadOneDimension(t *testing.T) {
	x, fx := NelderMead(func(v []float64) float64 {
		d := v[0] - 2.5
		return d * d
	}, []float64{0}, NelderMeadOptions{})
	if math.Abs(x[0]-2.5) > 1e-4 || fx > 1e-8 {
		t.Errorf("1-D Nelder-Mead: %v, %g", x, fx)
	}
}
