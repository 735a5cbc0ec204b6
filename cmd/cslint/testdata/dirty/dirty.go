// Package dirty violates the suite on purpose: cslint must exit 1 here.
package dirty

import "fmt"

// Same computes a == b exactly (floatcmp finding) and prints from a
// library package (printlint finding).
func Same(a, b float64) bool {
	fmt.Println("comparing", a, b)
	return a == b
}
