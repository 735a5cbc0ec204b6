// Package dirty violates the suite on purpose: cslint must exit 1 here.
// Its sched subpackage adds a finding from a second analyzer.
package dirty

// Same computes a == b exactly (floatcmp finding).
func Same(a, b float64) bool {
	return a == b
}
