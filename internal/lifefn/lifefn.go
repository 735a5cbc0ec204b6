// Package lifefn defines life functions: the survival curves that drive
// cycle-stealing risk in Rosenberg's model (CMPSCI TR 98-15). A life
// function p gives, for each time t, the probability p(t) that the
// borrowed workstation has not been reclaimed by time t. All of the
// paper's guidelines are expressed in terms of p and its derivative.
//
// The package supplies the three families the paper evaluates (uniform /
// polynomial risk, geometrically decreasing lifespan, geometrically
// increasing risk), the power-law family used by the paper's
// non-existence example, conditional (re-based) life functions for
// progressive scheduling, and empirical life functions fitted from trace
// data. Inverse, Draw and Span are the one place that finds where p
// reaches a level: the planner's p⁻¹, every inverse-transform reclaim
// draw, and the span over which p decays.
package lifefn

import (
	"fmt"
	"math"
)

// Shape classifies the curvature of a life function, which the paper's
// t0 upper bounds (Theorem 3.3) and growth-rate laws (Theorem 5.2)
// depend on. A life function is concave when its derivative is
// everywhere nonincreasing, convex when everywhere nondecreasing;
// Linear means both at once (the uniform-risk scenario).
type Shape int

const (
	// Unknown means the curvature is unclassified or mixed.
	Unknown Shape = iota
	// Concave life functions have nonincreasing derivative.
	Concave
	// Convex life functions have nondecreasing derivative.
	Convex
	// Linear life functions are both concave and convex.
	Linear
)

// String returns the lower-case name of the shape.
func (s Shape) String() string {
	switch s {
	case Concave:
		return "concave"
	case Convex:
		return "convex"
	case Linear:
		return "linear"
	default:
		return "unknown"
	}
}

// IsConcave reports whether the shape admits the concave-case bounds.
func (s Shape) IsConcave() bool { return s == Concave || s == Linear }

// IsConvex reports whether the shape admits the convex-case bounds.
func (s Shape) IsConvex() bool { return s == Convex || s == Linear }

// logConcaver is implemented by the life functions known to be
// log-concave: ln p concave wherever p > 0.
type logConcaver interface {
	logConcave() bool
}

// LogConcave reports whether l is known to be log-concave. It is true
// for Uniform, Poly, GeomDecreasing and GeomIncreasing (concave, or
// log-linear), and for a Conditional or Scaled life whose base is
// log-concave: conditioning and rescaling time both preserve
// log-concavity. It is false for every other life. For log-concave p,
// (1 - c/t)·p(t) is log-concave on t > c, hence unimodal, which lets
// the t0 bracket find Lemma 3.1's inner maximum once per plan.
func LogConcave(l Life) bool {
	lc, ok := l.(logConcaver)
	return ok && lc.logConcave()
}

// Life is a survival function for a cycle-stealing episode.
//
// Implementations must satisfy the paper's model assumptions: P(0) = 1,
// P nonincreasing and differentiable, and P(t) → 0 (at t = Horizon()
// when the horizon is finite, as t → ∞ otherwise). For t beyond a finite
// horizon, P must return 0.
type Life interface {
	// P returns the probability that the workstation is still available
	// at time t.
	//
	//cs:unit t=time return=probability
	P(t float64) float64
	// Deriv returns dP/dt at time t.
	//
	//cs:unit t=time return=rate
	Deriv(t float64) float64
	// Shape classifies the curvature of P.
	Shape() Shape
	// Horizon returns the potential lifespan L when the episode has a
	// known upper bound, or math.Inf(1) when it does not.
	//
	//cs:unit return=time
	Horizon() float64
	// String names the life function with its parameters.
	String() string
}

// Uniform is the uniform-risk life function p(t) = 1 - t/L of [BCLR97]:
// the risk of reclamation is constant across the potential lifespan L.
// It is both concave and convex.
type Uniform struct {
	L float64 //cs:unit time
}

// NewUniform returns the uniform-risk life function with lifespan L.
//
//cs:unit l=time
func NewUniform(l float64) (Uniform, error) {
	if !(l > 0) || math.IsInf(l, 0) {
		return Uniform{}, fmt.Errorf("lifefn: uniform lifespan must be positive and finite, got %g", l)
	}
	return Uniform{L: l}, nil
}

// P implements Life.
//
//cs:unit t=time return=probability
func (u Uniform) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t >= u.L {
		return 0
	}
	return 1 - t/u.L //lint:allow unitflow the complementary elapsed fraction of L is the uniform survival probability
}

// Deriv implements Life.
//
//cs:unit t=time return=rate
func (u Uniform) Deriv(t float64) float64 {
	if t < 0 || t > u.L {
		return 0
	}
	return -1 / u.L
}

// Shape implements Life.
func (u Uniform) Shape() Shape { return Linear }

// Horizon implements Life.
//
//cs:unit return=time
func (u Uniform) Horizon() float64 { return u.L }

func (Uniform) logConcave() bool { return true }

// inverse implements the closed-form p⁻¹: L(1-y).
//
//cs:unit y=probability return=time
func (u Uniform) inverse(y float64) float64 {
	return u.L * (1 - y)
}

// String implements Life.
func (u Uniform) String() string { return fmt.Sprintf("uniform(L=%g)", u.L) }

// Poly is the concave family p_{d,L}(t) = 1 - t^d/L^d of Section 4.1.
// d = 1 recovers Uniform; larger d concentrates the reclamation risk
// near the end of the lifespan.
type Poly struct {
	D int     // exponent, >= 1
	L float64 //cs:unit time
}

// NewPoly returns the polynomial life function p_{d,L}.
func NewPoly(d int, l float64) (Poly, error) {
	if d < 1 {
		return Poly{}, fmt.Errorf("lifefn: poly exponent must be >= 1, got %d", d)
	}
	if !(l > 0) || math.IsInf(l, 0) {
		return Poly{}, fmt.Errorf("lifefn: poly lifespan must be positive and finite, got %g", l)
	}
	return Poly{D: d, L: l}, nil
}

// P implements Life.
func (p Poly) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t >= p.L {
		return 0
	}
	return 1 - math.Pow(t/p.L, float64(p.D))
}

// Deriv implements Life.
func (p Poly) Deriv(t float64) float64 {
	if t < 0 || t > p.L {
		return 0
	}
	d := float64(p.D)
	if t == 0 && p.D > 1 {
		return 0
	}
	return -d / p.L * math.Pow(t/p.L, d-1)
}

// Shape implements Life.
func (p Poly) Shape() Shape {
	if p.D == 1 {
		return Linear
	}
	return Concave
}

// Horizon implements Life.
//
//cs:unit return=time
func (p Poly) Horizon() float64 { return p.L }

func (Poly) logConcave() bool { return true }

// inverse implements the closed-form p⁻¹: L(1-y)^{1/d}.
//
//cs:unit y=probability return=time
func (p Poly) inverse(y float64) float64 {
	return p.L * math.Pow(1-y, 1/float64(p.D))
}

// String implements Life.
func (p Poly) String() string { return fmt.Sprintf("poly(d=%d, L=%g)", p.D, p.L) }

// GeomDecreasing is the geometrically decreasing lifespan life function
// p_a(t) = a^{-t} of Section 4.2: the episode has a "half-life"; the
// conditional risk is identical at every instant. It is convex with an
// unbounded horizon.
type GeomDecreasing struct {
	A   float64 // risk factor, > 1
	lnA float64 // ln A, stored by NewGeomDecreasing; 0 in a struct literal
}

// NewGeomDecreasing returns the life function a^{-t}.
func NewGeomDecreasing(a float64) (GeomDecreasing, error) {
	if !(a > 1) || math.IsInf(a, 0) {
		return GeomDecreasing{}, fmt.Errorf("lifefn: geometric risk factor must be > 1 and finite, got %g", a)
	}
	return GeomDecreasing{A: a, lnA: math.Log(a)}, nil
}

// LnA returns ln a, the hazard rate of the episode: the value stored by
// NewGeomDecreasing, or math.Log(a) for a value built without it.
func (g GeomDecreasing) LnA() float64 {
	if g.lnA > 0 {
		return g.lnA
	}
	return math.Log(g.A)
}

// P implements Life.
func (g GeomDecreasing) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-t * g.LnA())
}

// Deriv implements Life.
func (g GeomDecreasing) Deriv(t float64) float64 {
	if t < 0 {
		return 0
	}
	lnA := g.LnA()
	return -lnA * math.Exp(-t*lnA)
}

// Shape implements Life.
func (g GeomDecreasing) Shape() Shape { return Convex }

// Horizon implements Life.
func (g GeomDecreasing) Horizon() float64 { return math.Inf(1) }

func (GeomDecreasing) logConcave() bool { return true }

// inverse implements the closed-form p⁻¹: -ln y / ln a.
//
//cs:unit y=probability return=time
func (g GeomDecreasing) inverse(y float64) float64 {
	return -math.Log(y) / g.LnA()
}

// String implements Life.
func (g GeomDecreasing) String() string { return fmt.Sprintf("geomdec(a=%g)", g.A) }

// GeomIncreasing is the geometrically increasing risk life function
// p(t) = (2^L - 2^t)/(2^L - 1) of Section 4.3, modelling an opportunity
// (such as a coffee break) whose interruption risk doubles at every time
// unit. It is concave with horizon L.
//
// The implementation evaluates (1 - 2^{t-L}) / (1 - 2^{-L}) to stay
// finite for large L.
type GeomIncreasing struct {
	L float64 //cs:unit time
	// den is 1 - 2^{-L}, stored by NewGeomIncreasing; 0 in a struct
	// literal.
	den float64 //cs:unit probability
}

// NewGeomIncreasing returns the doubling-risk life function with
// lifespan L.
func NewGeomIncreasing(l float64) (GeomIncreasing, error) {
	if !(l > 0) || math.IsInf(l, 0) {
		return GeomIncreasing{}, fmt.Errorf("lifefn: geomInc lifespan must be positive and finite, got %g", l)
	}
	return GeomIncreasing{L: l, den: -math.Expm1(-l * math.Ln2)}, nil
}

// denom returns 1 - 2^{-L}: the value stored by NewGeomIncreasing, or
// computed for a value built without it.
//
//cs:unit return=probability
func (g GeomIncreasing) denom() float64 {
	if g.den > 0 {
		return g.den
	}
	return -math.Expm1(-g.L * math.Ln2)
}

// P implements Life.
func (g GeomIncreasing) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t >= g.L {
		return 0
	}
	num := -math.Expm1((t - g.L) * math.Ln2) // 1 - 2^{t-L}
	return num / g.denom()
}

// Deriv implements Life.
func (g GeomIncreasing) Deriv(t float64) float64 {
	if t < 0 || t > g.L {
		return 0
	}
	return -math.Ln2 * math.Exp((t-g.L)*math.Ln2) / g.denom()
}

// Shape implements Life.
func (g GeomIncreasing) Shape() Shape { return Concave }

// Horizon implements Life.
//
//cs:unit return=time
func (g GeomIncreasing) Horizon() float64 { return g.L }

func (GeomIncreasing) logConcave() bool { return true }

// inverse implements the closed-form p⁻¹: L + log1p(-y·den)/ln 2 with
// den = 1 - 2^{-L}, as P uses it.
//
//cs:unit y=probability return=time
func (g GeomIncreasing) inverse(y float64) float64 {
	return g.L + math.Log1p(-y*g.denom())/math.Ln2
}

// String implements Life.
func (g GeomIncreasing) String() string { return fmt.Sprintf("geominc(L=%g)", g.L) }

// PowerLaw is the heavy-tailed life function p(t) = (1+t)^{-d}. For
// d > 1 the paper's Corollary 3.2 shows it admits no optimal schedule;
// the family exists here to exercise that existence test. It is convex
// with an unbounded horizon.
type PowerLaw struct {
	D float64 // tail exponent, > 0
}

// NewPowerLaw returns the life function (1+t)^{-d}.
func NewPowerLaw(d float64) (PowerLaw, error) {
	if !(d > 0) || math.IsInf(d, 0) {
		return PowerLaw{}, fmt.Errorf("lifefn: power-law exponent must be positive and finite, got %g", d)
	}
	return PowerLaw{D: d}, nil
}

// P implements Life.
func (p PowerLaw) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Pow(1+t, -p.D)
}

// Deriv implements Life.
func (p PowerLaw) Deriv(t float64) float64 {
	if t < 0 {
		return 0
	}
	return -p.D * math.Pow(1+t, -p.D-1)
}

// Shape implements Life.
func (p PowerLaw) Shape() Shape { return Convex }

// Horizon implements Life.
func (p PowerLaw) Horizon() float64 { return math.Inf(1) }

// String implements Life.
func (p PowerLaw) String() string { return fmt.Sprintf("powerlaw(d=%g)", p.D) }

// Weibull is the survival function exp(-(t/Scale)^K). For K <= 1 it is
// convex; for K > 1 it has a flex point, so its shape is Unknown and
// only the paper's shape-free results (Theorems 3.1, 3.2) apply — it is
// the package's stock example of a merely differentiable life function.
type Weibull struct {
	K     float64 // shape, > 0
	Scale float64 //cs:unit time
}

// NewWeibull returns the Weibull survival life function.
func NewWeibull(k, scale float64) (Weibull, error) {
	if !(k > 0) || !(scale > 0) {
		return Weibull{}, fmt.Errorf("lifefn: weibull parameters must be positive, got k=%g scale=%g", k, scale)
	}
	return Weibull{K: k, Scale: scale}, nil
}

// P implements Life.
func (w Weibull) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(t/w.Scale, w.K))
}

// Deriv implements Life.
func (w Weibull) Deriv(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 {
		if w.K < 1 {
			return math.Inf(-1)
		}
		if w.K > 1 {
			return 0
		}
		return -1 / w.Scale
	}
	u := t / w.Scale
	return -w.K / w.Scale * math.Pow(u, w.K-1) * w.P(t)
}

// Shape implements Life.
func (w Weibull) Shape() Shape {
	if w.K <= 1 {
		return Convex
	}
	return Unknown
}

// Horizon implements Life.
func (w Weibull) Horizon() float64 { return math.Inf(1) }

// String implements Life.
func (w Weibull) String() string { return fmt.Sprintf("weibull(k=%g, scale=%g)", w.K, w.Scale) }

// Func adapts arbitrary closures into a Life. It is the escape hatch for
// tests and for callers with bespoke survival curves.
type Func struct {
	PFunc     func(float64) float64
	DerivFunc func(float64) float64
	Curvature Shape
	Lifespan  float64 //cs:unit time
	Name      string
}

// P implements Life.
func (f Func) P(t float64) float64 { return f.PFunc(t) }

// Deriv implements Life.
func (f Func) Deriv(t float64) float64 { return f.DerivFunc(t) }

// Shape implements Life.
func (f Func) Shape() Shape { return f.Curvature }

// Horizon implements Life.
//
//cs:unit return=time
func (f Func) Horizon() float64 { return f.Lifespan }

// String implements Life.
func (f Func) String() string {
	if f.Name != "" {
		return f.Name
	}
	return "func"
}
