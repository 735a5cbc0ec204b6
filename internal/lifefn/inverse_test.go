package lifefn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// everyLife returns one representative of every Life implementation in
// the package: the four paper families, PowerLaw, Weibull, Func,
// Mixture, Conditional, Scaled and Empirical.
func everyLife(t *testing.T) []Life {
	t.Helper()
	lives := allBuiltins(t)
	must := func(l Life, err error) Life {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	u := must(NewUniform(100))
	gd := must(NewGeomDecreasing(math.Pow(2, 1.0/16)))
	const fl = 40.0
	lives = append(lives,
		Func{
			PFunc: func(t float64) float64 {
				if t >= fl {
					return 0
				}
				return math.Cos(math.Pi / 2 * math.Max(t, 0) / fl)
			},
			DerivFunc: func(t float64) float64 {
				if t < 0 || t > fl {
					return 0
				}
				return -math.Pi / (2 * fl) * math.Sin(math.Pi/2*t/fl)
			},
			Curvature: Concave,
			Lifespan:  fl,
			Name:      "cosine",
		},
		must(NewMixture([]Life{u, gd}, []float64{0.3, 0.7})),
		must(NewConditional(u, 30)),
		must(NewConditional(gd, 13)),
		must(NewScaled(gd, 3)),
	)
	ts, ps := sampleCurve(gd, 100, 50)
	lives = append(lives, must(NewEmpirical(ts, ps)))
	return lives
}

func TestInverseRoundTrip(t *testing.T) {
	for _, l := range everyLife(t) {
		mid := Span(l, 1e-6) / 2
		for _, from := range []float64{0, mid} {
			pFrom := l.P(from)
			for _, frac := range []float64{0.999, 0.9, 0.75, 0.5, 0.25, 0.1, 1e-2, 1e-4} {
				y := frac * pFrom
				got, err := Inverse(l, y, from, 1)
				if err != nil {
					t.Errorf("%s: Inverse(%g, from %g): %v", l, y, from, err)
					continue
				}
				if got < from {
					t.Errorf("%s: Inverse(%g, from %g) = %g before from", l, y, from, got)
				}
				if d := math.Abs(l.P(got) - y); d > 1e-9 {
					t.Errorf("%s: P(Inverse(%g, from %g)) off by %g", l, y, from, d)
				}
			}
		}
	}
}

func TestSpan(t *testing.T) {
	u, _ := NewUniform(70)
	if s := Span(u, 1e-3); s != 70 {
		t.Errorf("finite horizon: span = %g, want 70", s)
	}
	g, _ := NewGeomDecreasing(2)
	// 2^-8 > 1e-3 >= 2^-16: the first power of two past the decay.
	if s := Span(g, 1e-3); s != 16 {
		t.Errorf("power of two: span = %g, want 16", s)
	}
	slow, _ := NewPowerLaw(0.1)
	if s := Span(slow, 1e-3); s != 1<<40 {
		t.Errorf("cap: span = %g, want 2^40", s)
	}
}

func TestDrawUniform(t *testing.T) {
	// Survival 1 - t/L on [0, L]: draws must be Uniform(0, L).
	r := rng.New(23)
	l, _ := NewUniform(50)
	n := 100_000
	var sum float64
	for i := 0; i < n; i++ {
		v := Draw(l, r.Float64Open())
		if v < 0 || v > 50 {
			t.Fatalf("draw %g outside [0, 50]", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-25) > 0.3 {
		t.Errorf("mean = %g, want 25", mean)
	}
}

func TestDrawExponentialUnbounded(t *testing.T) {
	r := rng.New(29)
	l, _ := NewGeomDecreasing(math.E) // survival e^{-t}, mean 1
	n := 50_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Draw(l, r.Float64Open())
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.05 {
		t.Errorf("mean = %g, want 1", mean)
	}
}

func TestDrawPropertyWithinSupport(t *testing.T) {
	// Property: draws from a bounded survival curve stay in [0, horizon].
	check := func(seed uint32, li uint8) bool {
		l, _ := NewUniform(1 + float64(li))
		r := rng.New(uint64(seed))
		for i := 0; i < 20; i++ {
			v := Draw(l, r.Float64Open())
			if v < 0 || v > l.L {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDrawUnreachedLevelIsInf(t *testing.T) {
	// P stays above 1/2 forever, so no time reaches u = 1/4: the search
	// fails and Draw returns its upper end, the unbounded horizon.
	l := Func{
		PFunc:     func(t float64) float64 { return 0.5 + 0.5/(1+math.Max(t, 0)) },
		DerivFunc: func(t float64) float64 { return -0.5 / ((1 + t) * (1 + t)) },
		Curvature: Convex,
		Lifespan:  math.Inf(1),
	}
	if v := Draw(l, 0.25); !math.IsInf(v, 1) {
		t.Errorf("Draw = %g, want +Inf", v)
	}
}

// paperFamilies returns the four families with a closed-form p⁻¹, each
// at several parameters.
func paperFamilies(t testing.TB) []Life {
	var lives []Life
	add := func(l Life, err error) {
		if err != nil {
			t.Fatal(err)
		}
		lives = append(lives, l)
	}
	for _, l := range []float64{1, 100, 1e4} {
		add(NewUniform(l))
	}
	for _, d := range []int{2, 3, 5} {
		for _, l := range []float64{10, 400} {
			add(NewPoly(d, l))
		}
	}
	for _, hl := range []float64{1, 8, 100} {
		add(NewGeomDecreasing(math.Pow(2, 1/hl)))
	}
	for _, l := range []float64{5, 60, 100} {
		add(NewGeomIncreasing(l))
	}
	return lives
}

// closedFormTol is how far the closed-form root may sit from Brent's:
// 1e-12 relative, plus the width within which Brent's answer is itself
// undetermined. Where p is flat (y near 1 on the concave families) P
// rounds to the same value over an interval of about 4ε/|p'(T)|, and
// Brent may stop anywhere inside it.
func closedFormTol(l Life, root float64) float64 {
	return 1e-12*math.Max(1, root) + 4*0x1p-52/math.Abs(l.Deriv(root))
}

// checkClosedForm compares Inverse on l, which takes the closed form,
// with Inverse on l wrapped so that only Brent can answer.
func checkClosedForm(t *testing.T, l Life, y, from float64) {
	t.Helper()
	got, err := Inverse(l, y, from, 1)
	if err != nil {
		t.Errorf("%s: Inverse(%g, from %g): %v", l, y, from, err)
		return
	}
	//lint:allow floatcmp Inverse returns the closed form as computed
	if cf := l.(inverter).inverse(y); got != cf {
		t.Errorf("%s: Inverse(%g, from %g) = %g, not the closed form %g", l, y, from, got, cf)
	}
	if got < from {
		t.Errorf("%s: Inverse(%g, from %g) = %g before from", l, y, from, got)
	}
	if d := math.Abs(l.P(got) - y); d > 1e-9 {
		t.Errorf("%s: P(Inverse(%g, from %g)) off by %g", l, y, from, d)
	}
	want, err := Inverse(struct{ Life }{l}, y, from, 1)
	if err != nil {
		// From the root itself Brent may find no bracket, since P(from)
		// can round to either side of y.
		if got-from > closedFormTol(l, got) {
			t.Errorf("%s: Brent Inverse(%g, from %g): %v", l, y, from, err)
		}
		return
	}
	if d := math.Abs(got - want); d > closedFormTol(l, got) {
		t.Errorf("%s: y=%g from %g: closed form %.17g, Brent %.17g (|Δ| = %g)", l, y, from, got, want, d)
	}
}

// closedFormYs spans (0, 1) out to both ends.
var closedFormYs = []float64{1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12}

func TestInverseClosedFormMatchesBrent(t *testing.T) {
	for _, l := range paperFamilies(t) {
		for _, y := range closedFormYs {
			cf := l.(inverter).inverse(y)
			for _, from := range []float64{0, cf / 2, cf} {
				checkClosedForm(t, l, y, from)
			}
		}
	}
}
