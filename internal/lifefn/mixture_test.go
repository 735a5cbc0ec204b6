package lifefn

import (
	"math"
	"testing"
)

func TestMixtureBasics(t *testing.T) {
	short, _ := NewUniform(10)
	long, _ := NewUniform(100)
	m, err := NewMixture([]Life{short, long}, []float64{7, 3})
	if err != nil {
		t.Fatal(err)
	}
	w := m.weights
	if math.Abs(w[0]-0.7) > 1e-12 || math.Abs(w[1]-0.3) > 1e-12 {
		t.Errorf("weights = %v", w)
	}
	// P(5) = 0.7·0.5 + 0.3·0.95 = 0.635.
	if got := m.P(5); math.Abs(got-0.635) > 1e-12 {
		t.Errorf("P(5) = %g, want 0.635", got)
	}
	// Beyond the short component only the long one survives.
	if got := m.P(50); math.Abs(got-0.3*0.5) > 1e-12 {
		t.Errorf("P(50) = %g, want 0.15", got)
	}
	if m.Horizon() != 100 {
		t.Errorf("horizon = %g", m.Horizon())
	}
	if err := Validate(m, ValidateOptions{}); err != nil {
		t.Error(err)
	}
}

func TestMixtureShapeRules(t *testing.T) {
	u1, _ := NewUniform(10)
	u2, _ := NewUniform(50)
	g1, _ := NewGeomDecreasing(2)
	g2, _ := NewGeomDecreasing(1.1)
	p3, _ := NewPoly(3, 20)

	linear, _ := NewMixture([]Life{u1, u2}, []float64{1, 1})
	// Mixture of two different-slope linear functions is piecewise
	// linear with a kink at the short horizon — concave overall? The
	// derivative steps from -(w1/10 + w2/50) to -(w2/50) at t=10: it
	// *increases*, so the mixture is convex, not linear. The shape rule
	// classifies by component agreement: both Linear → Linear claim
	// would be wrong, so the implementation must report what the
	// components justify pointwise. Verify against DetectShape.
	detected := DetectShape(linear, 0, 50, 256)
	if linear.Shape() == Linear && detected == Concave {
		t.Errorf("mixture of linear components misclassified: declared %v, detected %v", linear.Shape(), detected)
	}

	convex, _ := NewMixture([]Life{g1, g2}, []float64{1, 2})
	if convex.Shape() != Convex {
		t.Errorf("all-convex mixture shape = %v", convex.Shape())
	}
	if d := DetectShape(convex, 0, 40, 128); d != Convex {
		t.Errorf("all-convex mixture detected as %v", d)
	}

	mixed, _ := NewMixture([]Life{g1, p3}, []float64{1, 1})
	if mixed.Shape() != Unknown {
		t.Errorf("mixed-shape mixture = %v, want unknown", mixed.Shape())
	}
}

func TestMixtureDerivConsistent(t *testing.T) {
	u, _ := NewUniform(40)
	g, _ := NewGeomDecreasing(math.Pow(2, 1.0/8))
	m, _ := NewMixture([]Life{u, g}, []float64{1, 1})
	for _, x := range []float64{1, 5, 15, 30, 60} {
		h := 1e-6 * (1 + x)
		fd := (m.P(x+h) - m.P(x-h)) / (2 * h)
		if math.Abs(fd-m.Deriv(x)) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("Deriv(%g) = %g, fd = %g", x, m.Deriv(x), fd)
		}
	}
}

// TestMixturePNeverExceedsOne pins the clamp in Mixture.P: normalizing
// the weights and then re-summing them each round once let float ripple
// push the weighted sum of all-surviving components a few ulps above 1.
// Six equal weights of 0.1 reproduce that: Σ (0.1/0.6) = 1 + 2e-16
// under left-to-right accumulation.
func TestMixturePNeverExceedsOne(t *testing.T) {
	plateau := Func{
		PFunc: func(tt float64) float64 {
			if tt <= 1 {
				return 1
			}
			if tt >= 2 {
				return 0
			}
			return 2 - tt
		},
		DerivFunc: func(tt float64) float64 {
			if tt < 1 || tt > 2 {
				return 0
			}
			return -1
		},
		Lifespan: 2,
		Name:     "plateau",
	}
	components := make([]Life, 6)
	weights := make([]float64, 6)
	for i := range components {
		components[i] = plateau
		weights[i] = 0.1
	}
	m, err := NewMixture(components, weights)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1e-12, 0.25, 0.5, 0.999, 1, 1.5, 2, 3} {
		if p := m.P(tt); p > 1 || p < 0 {
			t.Errorf("P(%g) = %.20g, escapes [0, 1]", tt, p)
		}
	}
}

func TestMixtureRejectsBadInput(t *testing.T) {
	u, _ := NewUniform(10)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture([]Life{u}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewMixture([]Life{u}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewMixture([]Life{nil}, []float64{1}); err == nil {
		t.Error("nil component accepted")
	}
}

func TestMixtureConditionalComposes(t *testing.T) {
	// Conditioning a mixture reweights toward long-lived components —
	// the Bayesian update progressive planning relies on.
	short, _ := NewUniform(10)
	long, _ := NewUniform(100)
	m, _ := NewMixture([]Life{short, long}, []float64{1, 1})
	cond, err := NewConditional(m, 10) // short component is dead
	if err != nil {
		t.Fatal(err)
	}
	// p(t | survived 10) should now be exactly the long component's
	// conditional curve.
	longCond, _ := NewConditional(long, 10)
	for i := 0; i <= 20; i++ {
		x := 90 * float64(i) / 20
		if math.Abs(cond.P(x)-longCond.P(x)) > 1e-12 {
			t.Fatalf("conditioned mixture mismatch at %g: %g vs %g", x, cond.P(x), longCond.P(x))
		}
	}
}
