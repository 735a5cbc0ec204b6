// Package optimal reproduces the provably optimal cycle-stealing
// schedules of Bhatt, Chung, Leighton and Rosenberg, "On optimal
// strategies for cycle-stealing in networks of workstations" (IEEE
// Trans. Computers 46, 1997) — reference [3] of the paper — for the
// three scenarios its guidelines are evaluated against in Section 4:
//
//   - uniform risk p(t) = 1 - t/L: the optimal schedule is the
//     arithmetic sequence t_k = t_0 - kc with t_0 = L/m + (m-1)c/2 for
//     the best period count m;
//   - geometrically decreasing lifespan p(t) = a^{-t}: the optimal
//     schedule is infinite with all periods equal to the root of
//     t + a^{-t}/ln a = c + 1/ln a;
//   - geometrically increasing risk p(t) = (2^L - 2^t)/(2^L - 1): the
//     optimal periods satisfy t_{k+1} = log2(t_k - c + 2).
//
// The package also provides a scenario-agnostic ground-truth optimizer
// (exhaustive period-count scan + Nelder–Mead over period vectors) used
// to cross-check both the closed forms here and the guideline schedules
// of internal/core.
package optimal

import (
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// Result is an optimal (or ground-truth) schedule with its expected
// work.
type Result struct {
	Schedule     sched.Schedule
	ExpectedWork float64
	// T0 is the schedule's initial period (0 for an empty schedule).
	T0 float64
}

func newResult(s sched.Schedule, l lifefn.Life, c float64) Result {
	r := Result{Schedule: s, ExpectedWork: sched.ExpectedWork(s, l, c)}
	if s.Len() > 0 {
		r.T0 = s.Period(0)
	}
	return r
}

// Uniform returns the optimal schedule for the uniform-risk scenario
// p(t) = 1 - t/L with overhead c, following [BCLR97]: optimal periods
// form the arithmetic sequence t_k = t_0 - kc. For each feasible period
// count m (bounded by Corollary 5.3) the expected work is an exactly
// quadratic, concave function of t_0, so the per-m optimum is solved in
// closed form and clamped to the feasible range [mc, L/m + (m-1)c/2] —
// the upper end exhausts the lifespan; the paper notes the optimum may
// deliberately leave part of the lifespan unused, which the interior
// solution captures.
func Uniform(l lifefn.Uniform, c float64) (Result, error) {
	if !(c > 0) {
		return Result{}, fmt.Errorf("optimal: overhead must be positive, got %g", c)
	}
	if l.L <= c {
		// No productive period fits: the optimal schedule is empty.
		return Result{}, nil
	}
	mMax := int(math.Ceil(math.Sqrt(2*l.L/c+0.25)+0.5)) + 1
	best := Result{}
	for m := 1; m <= mMax; m++ {
		t0, ok := uniformBestT0(l.L, c, m)
		if !ok {
			continue
		}
		periods := make([]float64, m)
		for k := range periods {
			periods[k] = t0 - float64(k)*c
		}
		s, err := sched.New(periods...)
		if err != nil {
			continue
		}
		if r := newResult(s, l, c); r.ExpectedWork > best.ExpectedWork {
			best = r
		}
	}
	return best, nil
}

// uniformBestT0 maximizes E over t0 for the m-period arithmetic
// schedule t_k = t0 - kc under p(t) = 1 - t/L. With
// T_k = (k+1)t0 - k(k+1)c/2, each term (t0-(k+1)c)(1 - T_k/L) is
// quadratic in t0 with negative leading coefficient, so E(t0) is
// concave; the unconstrained maximizer is clamped into the feasible
// interval (mc, L/m + (m-1)c/2].
func uniformBestT0(l, c float64, m int) (float64, bool) {
	lo := float64(m) * c // keeps the last period above c
	hi := l/float64(m) + float64(m-1)*c/2
	if !(lo < hi) {
		return 0, false
	}
	// E(u) = A·u² + B·u + C; A = -Σ (k+1)/L, B below, C irrelevant.
	var a, b float64
	for k := 0; k < m; k++ {
		kk := float64(k)
		alpha := (kk + 1) * c
		beta := (kk + 1) / l
		gamma := 1 + kk*(kk+1)*c/(2*l)
		a -= beta
		b += gamma + alpha*beta
	}
	u := -b / (2 * a)
	if u < lo {
		u = lo * (1 + 1e-12)
	}
	if u > hi {
		u = hi
	}
	return u, true
}

// GeomDecreasingPeriod returns the optimal common period length for the
// geometrically decreasing lifespan scenario p(t) = a^{-t}: the unique
// root t* > c of t + a^{-t}/ln a = c + 1/ln a ([BCLR97] proves all
// optimal periods are equal and satisfy this equation).
func GeomDecreasingPeriod(l lifefn.GeomDecreasing, c float64) (float64, error) {
	lna := l.LnA()
	f := func(t float64) float64 {
		return t + math.Exp(-t*lna)/lna - c - 1/lna
	}
	// f(c) = a^{-c}/ln a - 1/ln a < 0; f is increasing for t > 0 up to
	// slope 1, and f(c + 1/ln a) = a^{-t}/ln a > 0.
	hi := c + 1/lna
	if f(hi) <= 0 {
		// Root at or beyond the upper endpoint (numerically degenerate).
		return hi, nil
	}
	root, err := numeric.Brent(f, c, hi, numeric.RootOptions{AbsTol: 1e-13})
	if err != nil {
		return 0, fmt.Errorf("optimal: geomdec period: %w", err)
	}
	return root, nil
}

// GeomDecreasing returns the optimal (truncated-infinite) schedule for
// p(t) = a^{-t}: equal periods t* repeated until the survival
// probability falls below tailEps (the true optimum is infinite; the
// truncation error in expected work is below tailEps·t*/(1-a^{-t*})).
// ExpectedWorkGeomDecreasing gives the exact closed-form value.
func GeomDecreasing(l lifefn.GeomDecreasing, c, tailEps float64, maxPeriods int) (Result, error) {
	if tailEps <= 0 {
		tailEps = 1e-12
	}
	if maxPeriods <= 0 {
		maxPeriods = 100_000
	}
	t, err := GeomDecreasingPeriod(l, c)
	if err != nil {
		return Result{}, err
	}
	if !(t > c) {
		return Result{}, nil
	}
	// Periods needed for a^{-k t} <= tailEps.
	k := int(math.Ceil(-math.Log(tailEps) / (t * l.LnA())))
	if k < 1 {
		k = 1
	}
	if k > maxPeriods {
		k = maxPeriods
	}
	periods := make([]float64, k)
	for i := range periods {
		periods[i] = t
	}
	s, err := sched.New(periods...)
	if err != nil {
		return Result{}, err
	}
	return newResult(s, l, c), nil
}

// ExpectedWorkGeomDecreasing returns the exact expected work of the
// infinite equal-period schedule with period t under p(t) = a^{-t}:
// (t - c)·a^{-t} / (1 - a^{-t}).
func ExpectedWorkGeomDecreasing(l lifefn.GeomDecreasing, c, t float64) float64 {
	q := math.Exp(-t * l.LnA())
	return (t - c) * q / (1 - q)
}

// GeomIncreasing returns the optimal schedule for the doubling-risk
// scenario p(t) = (2^L - 2^t)/(2^L - 1): periods follow [BCLR97]'s
// recurrence t_{k+1} = log2(t_k - c + 2), and the initial period is
// chosen by a bracketed search maximizing expected work (the original
// paper derives the recurrence by period-perturbation arguments and
// pins t_0 ad hoc; no closed form for t_0 is given there either).
func GeomIncreasing(l lifefn.GeomIncreasing, c float64) (Result, error) {
	if !(c > 0) {
		return Result{}, fmt.Errorf("optimal: overhead must be positive, got %g", c)
	}
	if l.L <= c {
		return Result{}, nil
	}
	gen := func(t0 float64) sched.Schedule {
		return generateGeomInc(l, c, t0)
	}
	objective := func(t0 float64) float64 {
		return sched.ExpectedWork(gen(t0), l, c)
	}
	lo := c * (1 + 1e-9)
	t0, _, err := numeric.MaximizeScan(objective, lo, l.L, 512, numeric.MaxOptions{Tol: 1e-11})
	if err != nil {
		return Result{}, fmt.Errorf("optimal: geominc t0 search: %w", err)
	}
	return newResult(gen(t0), l, c), nil
}

// generateGeomInc iterates t_{k+1} = log2(t_k - c + 2) from t0, keeping
// the cumulative time inside the lifespan and the periods productive.
func generateGeomInc(l lifefn.GeomIncreasing, c, t0 float64) sched.Schedule {
	var periods []float64
	t, total := t0, 0.0
	for t > c && total+t <= l.L && len(periods) < 100_000 {
		periods = append(periods, t)
		total += t
		t = math.Log2(t - c + 2)
	}
	s, err := sched.New(periods...)
	if err != nil {
		return sched.Schedule{}
	}
	return sched.Normalize(s, c)
}
