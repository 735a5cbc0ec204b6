// Package problib is a fixture dependency: it declares probability
// parameters the analyzer does not check here (the package is not a
// guarded model package) but exports as dimension facts, so guarded
// importers check the arguments they pass.
package problib

// Blend takes a probability.
//
//cs:unit p=probability
func Blend(p float64) float64 { return p }

// Weights carries a method with a probability parameter, so the
// receiver offset of imported facts is exercised too.
type Weights struct{ n int }

// Scale takes a probability after its receiver.
//
//cs:unit p=probability
func (w Weights) Scale(p float64) float64 { return p * float64(w.n) }
