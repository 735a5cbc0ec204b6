package lifefn

import "math"

// Counting wraps a life function and counts its evaluations of P in
// *Evals, so that experiments can report work done rather than wall
// time. It keeps the wrapped life's closed-form p⁻¹ and its
// log-concavity, so a planner given a Counting life runs the same code
// path as on the life it wraps.
type Counting struct {
	Life
	Evals *int64
}

// P implements Life, counting the call.
//
//cs:unit t=time return=probability
func (c Counting) P(t float64) float64 {
	*c.Evals++
	return c.Life.P(t)
}

// inverse is the wrapped life's closed-form p⁻¹, or NaN, which sends
// Inverse to Brent's method, when it has none.
//
//cs:unit y=probability return=time
func (c Counting) inverse(y float64) float64 {
	if inv, ok := c.Life.(inverter); ok {
		return inv.inverse(y)
	}
	return math.NaN()
}

func (c Counting) logConcave() bool { return LogConcave(c.Life) }
