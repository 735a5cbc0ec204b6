package core

import (
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

// CheckGrowthRate verifies the period growth-rate law of Theorem 5.2 on
// a schedule: for concave life functions every internal period must
// satisfy t_{i+1} <= t_i - c; for convex ones t_{i+1} >= t_i - c. Linear
// life functions must satisfy both with equality. It returns the first
// violation (with slack beyond tol) or nil. Shapes other than
// concave/convex/linear are unconstrained and always pass.
func CheckGrowthRate(s sched.Schedule, shape lifefn.Shape, c, tol float64) error {
	for i := 0; i+1 < s.Len(); i++ {
		// The final period is exempt ("each internal period"), and for
		// the concave direction the bound constrains periods i with a
		// successor, which i+1 < Len captures.
		ti, tn := s.Period(i), s.Period(i+1)
		//lint:allow nonnegwork Theorem 3.7 growth bound; compared, never used as work
		bound := ti - c
		if shape.IsConcave() && tn > bound+tol {
			return fmt.Errorf("core: concave growth law violated at period %d: t_{i+1}=%g > t_i-c=%g", i, tn, bound)
		}
		if shape.IsConvex() && tn < bound-tol {
			return fmt.Errorf("core: convex growth law violated at period %d: t_{i+1}=%g < t_i-c=%g", i, tn, bound)
		}
	}
	return nil
}

// CheckStrictlyDecreasing verifies Corollary 5.1: optimal schedules for
// concave life functions have strictly decreasing period lengths.
func CheckStrictlyDecreasing(s sched.Schedule, tol float64) error {
	for i := 0; i+1 < s.Len(); i++ {
		if s.Period(i+1) >= s.Period(i)+tol {
			return fmt.Errorf("core: periods not strictly decreasing at %d: %g -> %g", i, s.Period(i), s.Period(i+1))
		}
	}
	return nil
}

// MaxPeriodsConcave returns the period-count bound of Corollary 5.3 for
// a concave life function with potential lifespan L and overhead c:
// m < ceil(sqrt(2L/c + 1/4) + 1/2). The returned value is that ceiling
// (so a valid schedule has strictly fewer periods only when the bound is
// not attained; the paper notes the uniform-risk optimum attains the
// floor variant).
func MaxPeriodsConcave(l, c float64) int {
	if !(l > 0) || !(c > 0) {
		return 0
	}
	return int(math.Ceil(math.Sqrt(2*l/c+0.25) + 0.5))
}

// MaxPeriodsFromT0 returns the Corollary 5.2 bound: an optimal schedule
// for a concave life function has at most t0/c periods.
func MaxPeriodsFromT0(t0, c float64) int {
	if !(t0 > 0) || !(c > 0) {
		return 0
	}
	return int(math.Floor(t0 / c))
}

// T0LowerFromPeriods returns the Corollary 5.4 lower bound on the
// optimal t0 of an m-period schedule for a concave life function with
// lifespan L: t0 >= L/m + (m-1)c/2.
func T0LowerFromPeriods(l, c float64, m int) float64 {
	if m <= 0 {
		return math.NaN()
	}
	return l/float64(m) + float64(m-1)*c/2
}

// PerturbationReport describes how a schedule fares against one of its
// δ-perturbations S^{[k,±δ]} (Section 5.1).
type PerturbationReport struct {
	Index int     // period k that was perturbed
	Delta float64 // signed δ applied to period k (and -δ to period k+1)
	Gain  float64 // E(perturbed) - E(original); negative means original wins
}

// CheckLocalOptimality exercises Theorem 5.1: for a schedule satisfying
// system (3.6) under a concave life function, every δ-perturbation must
// be strictly less productive. It tries both signs of each delta at
// every adjacent period pair and returns all perturbations that gained
// more than tol (an empty slice certifies local optimality at the
// sampled deltas).
func CheckLocalOptimality(s sched.Schedule, l lifefn.Life, c float64, deltas []float64, tol float64) []PerturbationReport {
	base := sched.ExpectedWork(s, l, c)
	var violations []PerturbationReport
	for k := 0; k+1 < s.Len(); k++ {
		for _, d := range deltas {
			for _, signed := range [2]float64{d, -d} {
				pert, err := s.Perturb(k, signed)
				if err != nil {
					continue // perturbation would empty a period
				}
				if gain := sched.ExpectedWork(pert, l, c) - base; gain > tol {
					violations = append(violations, PerturbationReport{Index: k, Delta: signed, Gain: gain})
				}
			}
		}
	}
	return violations
}
