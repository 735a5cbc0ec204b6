package lifefn

import (
	"fmt"
	"math"
)

// Mixture is a convex combination of life functions:
// P(t) = Σ w_i · P_i(t). It models multimodal owner behaviour — e.g. an
// owner who takes a quick coffee break with probability 0.7 and leaves
// for a long meeting with probability 0.3. Mixtures of valid life
// functions are valid life functions, but curvature is generally not
// preserved, so most mixtures only support the paper's shape-free
// results (Theorems 3.1 and 3.2); a mixture of all-convex components is
// convex (a nonnegative combination of nondecreasing derivatives is
// nondecreasing), and likewise for concave.
type Mixture struct {
	components []Life
	weights    []float64 //cs:unit probability
	shape      Shape
	horizon    float64 //cs:unit time
	name       string
}

// NewMixture returns the weighted mixture of the given life functions.
// Weights must be positive and are normalized to sum to one. At least
// one component is required.
func NewMixture(components []Life, weights []float64) (*Mixture, error) {
	if len(components) == 0 || len(components) != len(weights) {
		return nil, fmt.Errorf("lifefn: mixture needs matched components/weights, got %d/%d", len(components), len(weights))
	}
	total := 0.0
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("lifefn: mixture weight %d is %g, must be positive and finite", i, w)
		}
		if components[i] == nil {
			return nil, fmt.Errorf("lifefn: mixture component %d is nil", i)
		}
		total += w
	}
	m := &Mixture{
		components: append([]Life(nil), components...),
		weights:    make([]float64, len(weights)),
	}
	for i, w := range weights {
		m.weights[i] = w / total
	}
	// Horizon: the furthest component horizon (the mixture survives as
	// long as any component might).
	m.horizon = 0
	for _, c := range m.components {
		h := c.Horizon()
		if math.IsInf(h, 1) {
			m.horizon = math.Inf(1)
			break
		}
		if h > m.horizon {
			m.horizon = h
		}
	}
	// Shape: component agreement is NOT sufficient — mixing two linear
	// life functions with different horizons yields a convex piecewise
	// curve (the derivative jumps up where the short component dies).
	// Classify numerically over the effective span instead. Mixtures of
	// bounded components also have derivative kinks at interior
	// horizons; the planners tolerate these, but strictly speaking the
	// paper's differentiability assumption holds only piecewise.
	m.shape = DetectShape(m, 0, Span(m, 1e-9), 256)
	m.name = fmt.Sprintf("mixture(%d components)", len(m.components))
	return m, nil
}

// P implements Life.
//
//cs:unit t=time return=probability
func (m *Mixture) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	sum := 0.0
	for i, c := range m.components {
		sum += m.weights[i] * c.P(t)
	}
	// The normalized weights sum to one and every component P is at
	// most one, but the two rounding steps can leave the accumulated
	// sum a few ulps above; a survival probability must not exceed 1.
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Deriv implements Life.
//
//cs:unit t=time return=rate
func (m *Mixture) Deriv(t float64) float64 {
	if t < 0 {
		return 0
	}
	sum := 0.0
	for i, c := range m.components {
		sum += m.weights[i] * c.Deriv(t)
	}
	return sum
}

// Shape implements Life.
func (m *Mixture) Shape() Shape { return m.shape }

// Horizon implements Life.
//
//cs:unit return=time
func (m *Mixture) Horizon() float64 { return m.horizon }

// String implements Life.
func (m *Mixture) String() string { return m.name }
