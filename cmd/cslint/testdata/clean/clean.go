// Package clean satisfies every analyzer: cslint must exit 0 here.
package clean

import "math"

// Near compares within a tolerance, the way the suite wants.
func Near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}
