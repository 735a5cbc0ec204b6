// Package hot is the importing side of the cross-package hotalloc
// fixture: the finding below depends on dep's exported facts.
package hot

import "hotfacts/dep"

// Trial is a hot-path root that transitively reaches dep.Fill's
// allocation.
//
//cs:hotpath trial
func Trial(n int) float64 {
	xs := dep.Fill(n)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}
