package lifefn

import (
	"fmt"
	"math"
)

// Scaled is the life function p(t/k) for a time-unit change k > 0: the
// same owner behaviour measured in different units (seconds vs minutes,
// or a machine k× faster so everything takes 1/k as long). Curvature
// and the model identities are preserved; the horizon scales by k.
//
// Scaling underpins a useful invariance of the guidelines (tested in
// internal/core): scaling time by k while scaling the overhead c by k
// scales the optimal periods by k and the expected work by k.
type Scaled struct {
	Base Life
	K    float64 //cs:unit dimensionless
}

// NewScaled returns base with its time axis stretched by factor k.
func NewScaled(base Life, k float64) (*Scaled, error) {
	if base == nil {
		return nil, fmt.Errorf("lifefn: nil base life function")
	}
	if !(k > 0) || math.IsInf(k, 0) {
		return nil, fmt.Errorf("lifefn: scale factor must be positive and finite, got %g", k)
	}
	return &Scaled{Base: base, K: k}, nil
}

// P implements Life.
//
//cs:unit t=time return=probability
func (s *Scaled) P(t float64) float64 { return s.Base.P(t / s.K) }

// Deriv implements Life.
//
//cs:unit t=time return=rate
func (s *Scaled) Deriv(t float64) float64 { return s.Base.Deriv(t/s.K) / s.K }

// Shape implements Life: rescaling time preserves curvature sign.
func (s *Scaled) Shape() Shape { return s.Base.Shape() }

// Horizon implements Life.
//
//cs:unit return=time
func (s *Scaled) Horizon() float64 {
	h := s.Base.Horizon()
	if math.IsInf(h, 1) {
		return h
	}
	return h * s.K
}

func (s *Scaled) logConcave() bool { return LogConcave(s.Base) }

// String implements Life.
func (s *Scaled) String() string {
	return fmt.Sprintf("scaled(%s, k=%g)", s.Base.String(), s.K)
}
