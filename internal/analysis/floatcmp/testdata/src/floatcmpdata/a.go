package floatcmpdata

import "math"

func compare(a, b float64) bool {
	if a == b { // want "exact floating-point comparison"
		return true
	}
	return a != b // want "exact floating-point comparison"
}

func allowed(a, b float64, xs []float64) bool {
	if a == 0 || b != 1 { // exact constants: non-finding
		return true
	}
	if a == 1.5 || b != 49.5 { // exactly representable: non-finding
		return true
	}
	if a != a { // NaN self-test idiom: non-finding
		return true
	}
	if a == math.Inf(1) { // infinities compare exactly: non-finding
		return true
	}
	if a == 0.1 { // want "exact floating-point comparison"
		return true
	}
	//lint:allow floatcmp plateau detection is deliberately exact
	if a == b {
		return true
	}
	return xs[0] == xs[1] // want "exact floating-point comparison"
}

// almostEqual is a tolerance helper; its name does not exempt its
// exact fast path.
func almostEqual(a, b, tol float64) bool {
	if a == b { // want "exact floating-point comparison"
		return true
	}
	return math.Abs(a-b) <= tol
}

// A name that merely contains a helper-like word ("Close") is no
// tolerance helper at all.
func closedFormCheck(a, b float64) bool { return a == b } // want "exact floating-point comparison"

func ints(x, y int) bool { return x == y } // not floats: non-finding

type temp float64

func named(x, y temp) bool {
	return x == y // want "exact floating-point comparison"
}
