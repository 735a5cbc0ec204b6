// Package sched is named for a simulator package, so nonnegwork
// applies to it.
package sched

// Work returns the raw difference t - c (nonnegwork finding).
func Work(t, c float64) float64 { return t - c }
