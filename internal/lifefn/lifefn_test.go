package lifefn

import (
	"math"
	"testing"
	"testing/quick"
)

// allBuiltins returns one representative of every built-in family.
func allBuiltins(t *testing.T) []Life {
	t.Helper()
	u, err := NewUniform(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPoly(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := NewPoly(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := NewGeomDecreasing(math.Pow(2, 1.0/16))
	if err != nil {
		t.Fatal(err)
	}
	gi, err := NewGeomIncreasing(48)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := NewPowerLaw(2)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewWeibull(0.8, 30)
	if err != nil {
		t.Fatal(err)
	}
	return []Life{u, p2, p5, gd, gi, pw, wb}
}

func TestBuiltinsSatisfyModel(t *testing.T) {
	for _, l := range allBuiltins(t) {
		if err := Validate(l, ValidateOptions{}); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
}

func TestConstructorsRejectBadParameters(t *testing.T) {
	if _, err := NewUniform(0); err == nil {
		t.Error("NewUniform(0) accepted")
	}
	if _, err := NewUniform(math.Inf(1)); err == nil {
		t.Error("NewUniform(Inf) accepted")
	}
	if _, err := NewPoly(0, 10); err == nil {
		t.Error("NewPoly(0, 10) accepted")
	}
	if _, err := NewPoly(2, -1); err == nil {
		t.Error("NewPoly(2, -1) accepted")
	}
	if _, err := NewGeomDecreasing(1); err == nil {
		t.Error("NewGeomDecreasing(1) accepted")
	}
	if _, err := NewGeomIncreasing(0); err == nil {
		t.Error("NewGeomIncreasing(0) accepted")
	}
	if _, err := NewPowerLaw(0); err == nil {
		t.Error("NewPowerLaw(0) accepted")
	}
	if _, err := NewWeibull(0, 1); err == nil {
		t.Error("NewWeibull(0, 1) accepted")
	}
}

func TestUniformValues(t *testing.T) {
	u, _ := NewUniform(100)
	cases := []struct{ t, want float64 }{
		{0, 1}, {25, 0.75}, {50, 0.5}, {100, 0}, {150, 0}, {-3, 1},
	}
	for _, c := range cases {
		if got := u.P(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if u.Shape() != Linear {
		t.Errorf("shape = %v, want linear", u.Shape())
	}
}

func TestPolyReducesToUniformAtD1(t *testing.T) {
	u, _ := NewUniform(77)
	p, _ := NewPoly(1, 77)
	for i := 0; i <= 50; i++ {
		x := 77 * float64(i) / 50
		if math.Abs(u.P(x)-p.P(x)) > 1e-12 {
			t.Fatalf("P mismatch at %g: %g vs %g", x, u.P(x), p.P(x))
		}
		if math.Abs(u.Deriv(x)-p.Deriv(x)) > 1e-12 {
			t.Fatalf("Deriv mismatch at %g", x)
		}
	}
}

func TestPolyShapes(t *testing.T) {
	p1, _ := NewPoly(1, 10)
	p3, _ := NewPoly(3, 10)
	if p1.Shape() != Linear {
		t.Errorf("p_{1,L} shape = %v", p1.Shape())
	}
	if p3.Shape() != Concave {
		t.Errorf("p_{3,L} shape = %v", p3.Shape())
	}
}

func TestGeomDecreasingHalfLife(t *testing.T) {
	// a = 2^{1/32} gives a half-life of 32 time units.
	g, _ := NewGeomDecreasing(math.Pow(2, 1.0/32))
	if got := g.P(32); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(half-life) = %g, want 0.5", got)
	}
	if got := g.P(64); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("P(2·half-life) = %g, want 0.25", got)
	}
	if !math.IsInf(g.Horizon(), 1) {
		t.Error("geometric decreasing should have unbounded horizon")
	}
}

// TestGeomFamiliesPinnedDigits holds the two geometric families'
// P, Deriv, inverse and LnA to the literal expressions of their
// definitions, bit for bit, whether the value came from its
// constructor or from a struct literal.
func TestGeomFamiliesPinnedDigits(t *testing.T) {
	ts := []float64{-1, 0, 1e-9, 0.3, 1, 7.5, 31, 64, 99.9, 100, 500, 1e4}
	ys := []float64{1e-12, 0.01, 0.25, 0.5, 0.9, 1 - 1e-9}
	for _, hl := range []float64{0.5, 2, 32, 1000} {
		a := math.Pow(2, 1/hl)
		built, err := NewGeomDecreasing(a)
		if err != nil {
			t.Fatal(err)
		}
		lnA := math.Log(a)
		for _, g := range []GeomDecreasing{built, {A: a}} {
			if !sameBits(g.LnA(), lnA) {
				t.Errorf("%s: LnA = %.17g, want %.17g", g, g.LnA(), lnA)
			}
			for _, x := range ts {
				wantP, wantD := math.Exp(-x*lnA), -lnA*math.Exp(-x*lnA)
				if x <= 0 {
					wantP = 1
				}
				if x < 0 {
					wantD = 0
				}
				if got := g.P(x); !sameBits(got, wantP) {
					t.Errorf("%s: P(%g) = %.17g, want %.17g", g, x, got, wantP)
				}
				if got := g.Deriv(x); !sameBits(got, wantD) {
					t.Errorf("%s: Deriv(%g) = %.17g, want %.17g", g, x, got, wantD)
				}
			}
			for _, y := range ys {
				if got, want := g.inverse(y), -math.Log(y)/lnA; !sameBits(got, want) {
					t.Errorf("%s: inverse(%g) = %.17g, want %.17g", g, y, got, want)
				}
			}
		}
	}
	for _, L := range []float64{0.5, 20, 100, 1000} {
		built, err := NewGeomIncreasing(L)
		if err != nil {
			t.Fatal(err)
		}
		den := -math.Expm1(-L * math.Ln2)
		for _, g := range []GeomIncreasing{built, {L: L}} {
			for _, x := range ts {
				wantP := -math.Expm1((x-L)*math.Ln2) / den
				switch {
				case x <= 0:
					wantP = 1
				case x >= L:
					wantP = 0
				}
				wantD := -math.Ln2 * math.Exp((x-L)*math.Ln2) / den
				if x < 0 || x > L {
					wantD = 0
				}
				if got := g.P(x); !sameBits(got, wantP) {
					t.Errorf("%s: P(%g) = %.17g, want %.17g", g, x, got, wantP)
				}
				if got := g.Deriv(x); !sameBits(got, wantD) {
					t.Errorf("%s: Deriv(%g) = %.17g, want %.17g", g, x, got, wantD)
				}
			}
			for _, y := range ys {
				if got, want := g.inverse(y), L+math.Log1p(-y*den)/math.Ln2; !sameBits(got, want) {
					t.Errorf("%s: inverse(%g) = %.17g, want %.17g", g, y, got, want)
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestGeomIncreasingMatchesDefinition(t *testing.T) {
	// For small L, compare against the literal (2^L - 2^t)/(2^L - 1).
	g, _ := NewGeomIncreasing(20)
	for i := 0; i <= 40; i++ {
		x := 20 * float64(i) / 40
		want := (math.Pow(2, 20) - math.Pow(2, x)) / (math.Pow(2, 20) - 1)
		if got := g.P(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("P(%g) = %.12g, want %.12g", x, got, want)
		}
	}
}

func TestGeomIncreasingLargeLStable(t *testing.T) {
	// 2^1000 overflows float64; the expm1 form must stay finite.
	g, _ := NewGeomIncreasing(1000)
	if p := g.P(500); math.IsNaN(p) || p <= 0 || p > 1 {
		t.Errorf("P(500) = %g", p)
	}
	if d := g.Deriv(999); math.IsNaN(d) || d >= 0 {
		t.Errorf("Deriv(999) = %g", d)
	}
}

func TestPowerLawTail(t *testing.T) {
	p, _ := NewPowerLaw(2)
	if got := p.P(9); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("P(9) = %g, want 0.01", got)
	}
}

func TestWeibullShapeClassification(t *testing.T) {
	convex, _ := NewWeibull(0.7, 10)
	if convex.Shape() != Convex {
		t.Errorf("k<1 shape = %v, want convex", convex.Shape())
	}
	mixed, _ := NewWeibull(2, 10)
	if mixed.Shape() != Unknown {
		t.Errorf("k>1 shape = %v, want unknown", mixed.Shape())
	}
}

func TestDerivMatchesFiniteDifferenceEverywhere(t *testing.T) {
	for _, l := range allBuiltins(t) {
		span := l.Horizon()
		if math.IsInf(span, 1) {
			span = 64
		}
		for i := 1; i < 40; i++ {
			x := span * float64(i) / 40
			h := 1e-6 * (1 + x)
			fd := (l.P(x+h) - l.P(x-h)) / (2 * h)
			an := l.Deriv(x)
			if math.Abs(fd-an) > 1e-4*(1+math.Abs(an)) {
				t.Errorf("%s: Deriv(%g) = %g, fd = %g", l, x, an, fd)
			}
		}
	}
}

func TestShapeDetectionAgreesWithDeclared(t *testing.T) {
	for _, l := range allBuiltins(t) {
		declared := l.Shape()
		if declared == Unknown {
			continue
		}
		span := l.Horizon()
		if math.IsInf(span, 1) {
			span = 64
		}
		detected := DetectShape(l, 0, span, 128)
		ok := detected == declared ||
			(declared == Linear && (detected == Concave || detected == Convex))
		if !ok {
			t.Errorf("%s: declared %v, detected %v", l, declared, detected)
		}
	}
}

func TestPropertyPIsProbability(t *testing.T) {
	// Property: P stays in [0, 1] at arbitrary times for arbitrary
	// family parameters.
	check := func(li uint8, ti uint16, di uint8) bool {
		l := 1 + float64(li)
		x := float64(ti) / 16
		d := 1 + int(di%6)
		u, err := NewPoly(d, l)
		if err != nil {
			return false
		}
		p := u.P(x)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMeanLifetimeUniform(t *testing.T) {
	u, _ := NewUniform(100)
	m, err := MeanLifetime(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-50) > 1e-6 {
		t.Errorf("mean lifetime = %g, want 50", m)
	}
}

func TestMeanLifetimeGeomDecreasing(t *testing.T) {
	// E[R] for survival a^{-t} is 1/ln a.
	a := math.Pow(2, 1.0/16)
	g, _ := NewGeomDecreasing(a)
	m, err := MeanLifetime(g)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Log(a)
	if math.Abs(m-want) > 1e-4*want {
		t.Errorf("mean lifetime = %g, want %g", m, want)
	}
}

func TestFuncAdapter(t *testing.T) {
	f := Func{
		PFunc:     func(t float64) float64 { return math.Max(0, 1-t/10) },
		DerivFunc: func(t float64) float64 { return -0.1 },
		Curvature: Linear,
		Lifespan:  10,
		Name:      "custom",
	}
	if f.P(5) != 0.5 || f.Shape() != Linear || f.Horizon() != 10 || f.String() != "custom" {
		t.Error("Func adapter misbehaves")
	}
}

func TestValidateCatchesBrokenLife(t *testing.T) {
	increasing := Func{
		PFunc:     func(t float64) float64 { return math.Min(1, t/10) },
		DerivFunc: func(t float64) float64 { return 0.1 },
		Curvature: Linear,
		Lifespan:  10,
	}
	if err := Validate(increasing, ValidateOptions{}); err == nil {
		t.Error("Validate accepted an increasing 'life function'")
	}
	badStart := Func{
		PFunc:     func(t float64) float64 { return 0.5 * math.Max(0, 1-t/10) },
		DerivFunc: func(t float64) float64 { return -0.05 },
		Curvature: Linear,
		Lifespan:  10,
	}
	if err := Validate(badStart, ValidateOptions{}); err == nil {
		t.Error("Validate accepted P(0) != 1")
	}
}

func TestShapeStrings(t *testing.T) {
	if Concave.String() != "concave" || Convex.String() != "convex" ||
		Linear.String() != "linear" || Unknown.String() != "unknown" {
		t.Error("Shape.String mismatch")
	}
	if !Linear.IsConcave() || !Linear.IsConvex() || Concave.IsConvex() || Convex.IsConcave() {
		t.Error("shape predicates wrong")
	}
}

// TestLogConcave checks which lives report log-concavity: the four
// paper families and their conditionals and rescalings do; Mixture,
// PowerLaw, Weibull, Func, Empirical and unknown wrappers do not, so
// the planner keeps its per-probe Lemma 3.1 scan for them. Where it is
// reported, ln p must be concave on a grid: no second difference above
// rounding.
func TestLogConcave(t *testing.T) {
	must := func(l Life, err error) Life {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// everyLife: u, p2, p5, gd, gi, powerlaw, weibull(0.8), cosine
	// Func, mixture, u|30, gd|13, scaled gd, empirical.
	lives := everyLife(t)
	want := []bool{true, true, true, true, true, false, false, false, false, true, true, true, false}
	if len(lives) != len(want) {
		t.Fatalf("everyLife has %d lives, want %d", len(lives), len(want))
	}
	u, pw, mix := lives[0], lives[5], lives[8]
	for _, extra := range []struct {
		l    Life
		want bool
	}{
		{must(NewWeibull(0.5, 10)), false},
		{must(NewWeibull(3, 10)), false},
		{must(NewConditional(mix, 5)), false},
		{must(NewScaled(pw, 2)), false},
		{must(NewScaled(must(NewConditional(u, 10)), 2)), true},
		{struct{ Life }{u}, false},
	} {
		lives, want = append(lives, extra.l), append(want, extra.want)
	}
	for i, l := range lives {
		if got := LogConcave(l); got != want[i] {
			t.Errorf("%s: LogConcave = %v, want %v", l, got, want[i])
		}
		if !want[i] {
			continue
		}
		const n = 400
		h := Span(l, 1e-9) / n
		for j := 1; j < n-1; j++ {
			x := float64(j) * h
			a, b, c := l.P(x-h), l.P(x), l.P(x+h)
			if !(c > 0) {
				break
			}
			if d2 := math.Log(a) - 2*math.Log(b) + math.Log(c); d2 > 1e-12 {
				t.Errorf("%s: ln p convex near %g (second difference %g)", l, x, d2)
				break
			}
		}
	}
}
