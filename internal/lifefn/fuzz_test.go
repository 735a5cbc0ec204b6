package lifefn

import (
	"math"
	"testing"
)

// unit maps any float to [0, 1), or reports false for NaN and ±Inf.
func unit(x float64) (float64, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, false
	}
	return math.Mod(math.Abs(x), 1), true
}

// FuzzInverse draws one of the four paper families with its
// parameters, a level y in (0, 1) and a start from in [0, p⁻¹(y)], and
// holds Inverse's closed form to the bounds TestInverseClosedFormMatchesBrent
// checks: it lies at or after from, P of it is within 1e-9 of y, and it
// agrees with Brent's root.
func FuzzInverse(f *testing.F) {
	f.Add(uint8(0), 0.3, uint8(1), 0.5, 0.0)
	f.Add(uint8(1), 0.9, uint8(3), 1-1e-9, 0.5)
	f.Add(uint8(2), 0.01, uint8(0), 1e-12, 0.99)
	f.Add(uint8(3), 0.6, uint8(0), 0.999, 1.0)
	f.Fuzz(func(t *testing.T, family uint8, scale float64, d uint8, y, fromFrac float64) {
		s, ok := unit(scale)
		y, okY := unit(y)
		fromFrac, okF := unit(fromFrac)
		if !ok || !okY || !okF || y == 0 {
			return
		}
		// Lifespans and half-lives from 0.01 to 10^4, log-uniformly.
		size := math.Pow(10, 6*s-2)
		var l Life
		var err error
		switch family % 4 {
		case 0:
			l, err = NewUniform(size)
		case 1:
			l, err = NewPoly(1+int(d%8), size)
		case 2:
			l, err = NewGeomDecreasing(math.Pow(2, 1/size))
		default:
			l, err = NewGeomIncreasing(size)
		}
		if err != nil {
			return // e.g. a half-life so long that a rounds to 1
		}
		root := l.(inverter).inverse(y)
		checkClosedForm(t, l, y, fromFrac*root)
	})
}
