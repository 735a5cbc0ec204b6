// Fixture for the probrange analyzer across a package boundary, named
// core so the guarded package gate applies. Every finding here rests
// on a //cs:unit declaration that only problib's exported facts carry.
package core

import (
	"math"

	"problib"
)

// True positive: a shifted probability passed to an imported
// probability parameter.
//
//cs:unit x=probability
func shifted(x float64) float64 {
	return problib.Blend(x + 0.5) // want `value in \[0\.5, 1\.5\] passed as the probability argument of Blend`
}

// True positive: a constant outside the unit interval passed to an
// imported method's probability parameter.
func scaled(w problib.Weights) float64 {
	return w.Scale(1.5) // want `value in \[1\.5, 1\.5\] passed as the probability argument of Scale`
}

// Non-finding: the clamp idiom keeps the argument in the interval.
func clamped(x float64) float64 {
	return problib.Blend(math.Max(0, math.Min(1, x)))
}

// Non-finding: an in-range constant is fine.
func inRange(w problib.Weights) float64 {
	return w.Scale(0.25)
}
