package core

import (
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/numeric"
)

// Bracket is a guideline bracket on the optimal initial period length:
// Theorems 3.2 and 3.3 guarantee that the optimal t0 lies in [Lo, Hi]
// (up to the small safety margin recorded in Margin). Detail records
// which individual bounds were active.
type Bracket struct {
	Lo, Hi float64
	// Margin is the relative slack applied to each side to absorb the
	// numerical solution of the implicit bound equations.
	Margin float64
	// Detail carries the raw per-theorem bounds for reporting.
	Detail BoundDetail
}

// BoundDetail is the set of individual t0 bounds that produced a
// Bracket. Bounds that do not apply (wrong shape, unbounded horizon, or
// no numerical solution) are NaN.
type BoundDetail struct {
	// Thm32Lower is the implicit lower bound (3.7), valid for every
	// differentiable life function.
	Thm32Lower float64
	// Thm33Upper is the shape-specific upper bound (3.13) (convex) or
	// (3.14) (concave).
	Thm33Upper float64
	// Lemma31Upper is the implicit, shape-free upper bound (3.10)
	// (combined with the "either t0 <= 2c" alternative).
	Lemma31Upper float64
	// Cor55Lower is the refined concave lower bound sqrt(cL/2) + 3c/4.
	Cor55Lower float64
	// Span is the search ceiling: the horizon for bounded life
	// functions, the effective decay span otherwise.
	Span float64
}

// lowerRHS evaluates the right-hand side of inequality (3.7):
// sqrt(c²/4 - c·p(t)/p'(t)) + c/2. It returns +Inf where the derivative
// vanishes while survival remains positive (the bound degenerates
// there).
func lowerRHS(l lifefn.Life, c, t float64) float64 {
	p := l.P(t)
	dp := l.Deriv(t)
	if dp >= 0 {
		if p <= 0 {
			return c
		}
		return math.Inf(1)
	}
	return math.Sqrt(c*c/4-c*p/dp) + c/2
}

// upperRHS evaluates the right-hand side of the shape-specific upper
// bound: (3.13) uses p'(t) for convex life functions, (3.14) uses
// p'(t/2) for concave ones.
func upperRHS(l lifefn.Life, c, t float64, shape lifefn.Shape) float64 {
	p := l.P(t)
	var dp float64
	switch {
	case shape.IsConvex():
		dp = l.Deriv(t)
	case shape.IsConcave():
		dp = l.Deriv(t / 2)
	default:
		return math.NaN()
	}
	if dp >= 0 {
		if p <= 0 {
			return c
		}
		return math.Inf(1)
	}
	return 2*math.Sqrt(c*c/4-c*p/dp) + c
}

// T0Bracket computes the guideline bracket for the optimal initial
// period length: the largest lower bound among Theorem 3.2 and (for
// concave p with finite horizon) Corollary 5.5, and the smallest upper
// bound among Theorem 3.3, Lemma 3.1 and the search span. A small
// relative margin is applied on both sides so that the bracketed search
// cannot lose the optimum to the numerical solution of the implicit
// bound equations.
//
// Lemma 3.1's inner maximum of g(t) = (1 - c/t)·p(t) is found once per
// plan when p is log-concave (lifefn.LogConcave), which makes g
// unimodal; for every other life it is found afresh at each probe.
func (pl *Planner) T0Bracket() (Bracket, error) {
	return pl.t0Bracket(lifefn.LogConcave(pl.life))
}

// t0Bracket is T0Bracket; peak selects the once-per-plan Lemma 3.1
// inner maximum, which is exact only where g is unimodal.
func (pl *Planner) t0Bracket(peak bool) (Bracket, error) {
	c := pl.c
	l := pl.life
	span := lifefn.Span(l, pl.opt.TailEps)
	if !(span > c) {
		return Bracket{}, fmt.Errorf("%w: lifespan %g does not exceed overhead %g", ErrNoSchedule, span, c)
	}
	d := BoundDetail{
		Thm32Lower:   math.NaN(),
		Thm33Upper:   math.NaN(),
		Lemma31Upper: math.NaN(),
		Cor55Lower:   math.NaN(),
		Span:         span,
	}

	// --- Lower bound, Theorem 3.2: smallest t in (c, span] with
	// t >= lowerRHS(t).
	gap := func(t float64) float64 { return t - lowerRHS(l, c, t) }
	if lo, ok := firstCrossing(gap, c*(1+1e-9), span, 256); ok {
		d.Thm32Lower = lo
	}

	// --- Lower bound, Corollary 5.5 (concave, finite horizon).
	shape := l.Shape()
	if shape.IsConcave() && !math.IsInf(l.Horizon(), 1) {
		d.Cor55Lower = math.Sqrt(c*l.Horizon()/2) + 0.75*c
	}

	// --- Upper bound, Theorem 3.3 (needs a definite shape and t0 > 2c):
	// largest t in [2c, span] with t <= upperRHS(t).
	if shape != lifefn.Unknown {
		slack := func(t float64) float64 { return upperRHS(l, c, t, shape) - t }
		if hi, ok := lastCrossing(slack, 2*c, span, 256); ok {
			d.Thm33Upper = math.Max(hi, 2*c)
		} else if slack(span) >= 0 {
			d.Thm33Upper = span
		} else {
			d.Thm33Upper = 2 * c
		}
	}

	// --- Upper bound, Lemma 3.1: largest t0 in [2c, span] satisfying
	// condition (3.10); 2c if none does.
	lemma31 := pl.lemma31Slack
	if peak {
		pk := pl.innerPeak(span)
		lemma31 = func(t0 float64) float64 { return pl.lemma31PeakSlack(t0, pk) }
	}
	if hi, ok := lastCrossing(lemma31, 2*c, span, 256); ok {
		d.Lemma31Upper = math.Max(hi, 2*c)
	} else if lemma31(span) >= 0 {
		d.Lemma31Upper = span
	} else {
		d.Lemma31Upper = 2 * c
	}

	lo := c * (1 + 1e-9)
	if !math.IsNaN(d.Thm32Lower) {
		lo = math.Max(lo, d.Thm32Lower)
	}
	if !math.IsNaN(d.Cor55Lower) {
		lo = math.Max(lo, d.Cor55Lower)
	}
	hi := span
	if !math.IsNaN(d.Thm33Upper) {
		hi = math.Min(hi, d.Thm33Upper)
	}
	if !math.IsNaN(d.Lemma31Upper) {
		hi = math.Min(hi, d.Lemma31Upper)
	}

	const margin = 0.02
	lo *= 1 - margin
	hi *= 1 + margin
	if lo <= c {
		lo = c * (1 + 1e-9)
	}
	if hi > span {
		hi = span
	}
	if !(lo < hi) {
		// Degenerate bracket (tiny lifespans): search the whole range.
		lo, hi = c*(1+1e-9), span
	}
	return Bracket{Lo: lo, Hi: hi, Margin: margin, Detail: d}, nil
}

// lemma31Slack measures how much t0 satisfies condition (3.10):
// p(t0) - max_{t in (c, t0-c)} g(t), with the inner maximum found by a
// fresh scan of (c, t0-c) at every call. The bracket uses it for lives
// not known to be log-concave; the others read the maximum from one
// innerPeak per plan (lemma31PeakSlack). Nonnegative slack means the
// condition holds. For t0 <= 2c the inner interval is empty and the
// lemma places no constraint, so the slack is +Inf.
func (pl *Planner) lemma31Slack(t0 float64) float64 {
	c := pl.c
	if t0 <= 2*c {
		return math.Inf(1)
	}
	//lint:allow nonnegwork interval endpoint of (3.10), positive by the t0 > 2c guard above
	_, best, err := numeric.MaximizeScan(pl.lemma31G, c*(1+1e-9), t0-c, 64, numeric.MaxOptions{Tol: 1e-9})
	if err != nil {
		return math.Inf(1)
	}
	return pl.life.P(t0) - best
}

// lemma31G is the function condition (3.10) maximizes:
// g(t) = (1 - c/t)·p(t).
func (pl *Planner) lemma31G(t float64) float64 { return (1 - pl.c/t) * pl.life.P(t) }

// innerPeak is the maximizer t of g over [lo, span-c] and its value g.
// When g is unimodal, its maximum over [lo, x] is g(x) for x < t and g
// beyond, so one scan serves every probe of the Lemma 3.1 bound.
type innerPeak struct {
	lo, t, g float64
}

// innerPeak scans g once over the widest inner interval any probe of
// [2c, span] uses. When that interval is empty, lo is +Inf: no probe
// has an inner maximum, as in lemma31Slack.
func (pl *Planner) innerPeak(span float64) innerPeak {
	lo := pl.c * (1 + 1e-9)
	//lint:allow nonnegwork interval endpoint of (3.10); a negative one makes the interval empty
	t, g, err := numeric.MaximizeScan(pl.lemma31G, lo, span-pl.c, 64, numeric.MaxOptions{Tol: 1e-9})
	if err != nil {
		return innerPeak{lo: math.Inf(1)}
	}
	return innerPeak{lo: lo, t: t, g: g}
}

// lemma31PeakSlack is lemma31Slack with the inner maximum read from pk
// instead of scanned: exact where g is unimodal. Like the scan, it can
// only underestimate the maximum, which loosens the bound but never
// lets it exclude the optimum.
func (pl *Planner) lemma31PeakSlack(t0 float64, pk innerPeak) float64 {
	c := pl.c
	if t0 <= 2*c {
		return math.Inf(1)
	}
	x := t0 - c //lint:allow nonnegwork interval endpoint of (3.10), positive by the t0 > 2c guard above
	if !(pk.lo <= x) {
		return math.Inf(1)
	}
	best := pk.g
	if x < pk.t {
		best = pl.lemma31G(x)
	}
	return pl.life.P(t0) - best
}

// firstCrossing finds the smallest t in [lo, hi] where f changes from
// negative to nonnegative, scanning n cells and refining by bisection.
func firstCrossing(f func(float64) float64, lo, hi float64, n int) (float64, bool) {
	if !(lo < hi) {
		return 0, false
	}
	prevT := lo
	if f(lo) >= 0 {
		return lo, true
	}
	h := (hi - lo) / float64(n)
	for i := 1; i <= n; i++ {
		t := lo + float64(i)*h
		if f(t) >= 0 {
			return bisectCrossing(f, prevT, t), true
		}
		prevT = t
	}
	return 0, false
}

// lastCrossing finds the largest t in [lo, hi] where f is nonnegative,
// scanning from hi downward and refining by bisection at the boundary.
func lastCrossing(f func(float64) float64, lo, hi float64, n int) (float64, bool) {
	if !(lo < hi) {
		return 0, false
	}
	h := (hi - lo) / float64(n)
	prevT := hi
	if f(hi) >= 0 {
		return hi, true
	}
	for i := n - 1; i >= 0; i-- {
		t := lo + float64(i)*h
		if f(t) >= 0 {
			return bisectCrossing(f, prevT, t), true
		}
		prevT = t
	}
	return 0, false
}

// bisectCrossing refines the boundary between a point where f < 0 (neg)
// and one where f >= 0 (pos), returning a point on the nonnegative side.
func bisectCrossing(f func(float64) float64, neg, pos float64) float64 {
	for i := 0; i < 80 && math.Abs(pos-neg) > 1e-12*(1+math.Abs(pos)); i++ {
		mid := neg + (pos-neg)/2
		if f(mid) >= 0 {
			pos = mid
		} else {
			neg = mid
		}
	}
	return pos
}
