package lifefn

import (
	"fmt"
	"math"
)

// Conditional is the life function of an episode that is known to have
// survived to time Tau, re-based so that its own clock starts at zero:
//
//	p(t | survived Tau) = base.P(Tau + t) / base.P(Tau).
//
// Section 6 of the paper observes that, because system (3.6) determines
// t_{k+1} only after period k has ended, schedules can be built
// progressively from conditional rather than absolute probabilities;
// Conditional is that construction. Concavity and convexity are
// preserved, since conditioning shifts and positively rescales P.
type Conditional struct {
	Base Life
	Tau  float64 //cs:unit time
	pTau float64 //cs:unit probability
}

// NewConditional returns base conditioned on survival to tau.
// It fails if the conditioning event has zero probability.
//
//cs:unit tau=time
func NewConditional(base Life, tau float64) (*Conditional, error) {
	if tau < 0 {
		return nil, fmt.Errorf("lifefn: negative conditioning time %g", tau)
	}
	pt := base.P(tau)
	if !(pt > 0) {
		return nil, fmt.Errorf("lifefn: conditioning on zero-probability survival to t=%g (p=%g)", tau, pt)
	}
	return &Conditional{Base: base, Tau: tau, pTau: pt}, nil
}

// P implements Life.
//
//cs:unit t=time return=probability
func (c *Conditional) P(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return c.Base.P(c.Tau+t) / c.pTau //lint:allow unitflow a ratio of like probabilities is the conditional probability
}

// Deriv implements Life.
//
//cs:unit t=time return=rate
func (c *Conditional) Deriv(t float64) float64 {
	if t < 0 {
		return 0
	}
	return c.Base.Deriv(c.Tau+t) / c.pTau
}

// Shape implements Life: conditioning preserves curvature.
func (c *Conditional) Shape() Shape { return c.Base.Shape() }

// Horizon implements Life.
//
//cs:unit return=time
func (c *Conditional) Horizon() float64 {
	h := c.Base.Horizon()
	if math.IsInf(h, 1) {
		return h
	}
	if rem := h - c.Tau; rem > 0 {
		return rem
	}
	return 0
}

func (c *Conditional) logConcave() bool { return LogConcave(c.Base) }

// String implements Life.
func (c *Conditional) String() string {
	return fmt.Sprintf("%s | survived %g", c.Base.String(), c.Tau)
}
