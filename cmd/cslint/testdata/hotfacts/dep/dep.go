// Package dep is the helper side of the cross-package hotalloc
// fixture: its allocation site reaches the hot package only if
// hotalloc's facts cross the package boundary.
package dep

// Fill builds a fresh buffer — an allocation a hot path must not
// reach.
func Fill(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
