// Package work is clean on its own (not a guarded simulator package)
// but exports a flow summary recording the raw subtraction, which the
// driver must carry to importers.
package work

// Budget returns the raw, sign-preserving difference.
func Budget(t, c float64) float64 { return t - c }
