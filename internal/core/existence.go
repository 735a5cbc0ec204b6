package core

import (
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// ExistsProductive implements the literal existence test of Corollary
// 3.2: it scans for a witness t > c with p(t) > -(t-c)·p'(t), a
// necessary condition for an optimal schedule. The scan covers a dense
// linear grid plus a geometric sweep of the tail.
//
// Note the literal condition is weak: for p = (1+t)^{-d} it reduces to
// 1+t > d(t-c), which is satisfiable just above c for every d, so the
// literal scan cannot by itself reproduce the paper's claim that d > 1
// admits no optimal schedule. See TailMarginFails and AdmitsOptimal for
// the tail reading under which the claim follows.
func ExistsProductive(l lifefn.Life, c float64) (witness float64, ok bool) {
	span := lifefn.Span(l, 1e-15)
	if !(span > c) {
		return 0, false
	}
	margin := func(t float64) float64 {
		//lint:allow nonnegwork Corollary 3.2 margin; its sign is the tested quantity
		return l.P(t) + (t-c)*l.Deriv(t)
	}
	lo := c * (1 + 1e-9)
	for i := 1; i <= 512; i++ {
		t := lo + (span-lo)*float64(i)/512
		if margin(t) > 0 {
			return t, true
		}
	}
	for t := lo * 1.001; t < span; t *= 1.5 {
		if margin(t) > 0 {
			return t, true
		}
	}
	return 0, false
}

// TailMarginFails reports whether the Corollary 3.2 margin
// p(t) + (t-c)·p'(t) is eventually negative: negative at every sampled
// time in the far tail (a geometric ladder across the last decades of
// the effective span). Equivalently, 1/h(t) < t - c in the tail, where
// h = -p'/p is the hazard rate. Only meaningful for unbounded-horizon
// life functions; it returns false for bounded horizons.
func TailMarginFails(l lifefn.Life, c float64) bool {
	if !math.IsInf(l.Horizon(), 1) {
		return false
	}
	span := lifefn.Span(l, 1e-15)
	if span <= 4*c {
		return false
	}
	// Sample the far half of the effective span: the margin must be
	// negative at every point there for the tail failure to hold.
	for i := 0; i <= 8; i++ {
		t := span * (0.5 + 0.5*float64(i)/8)
		//lint:allow nonnegwork Corollary 3.2 margin; negativity is what the test checks
		if l.P(t)+(t-c)*l.Deriv(t) > 0 {
			return false
		}
	}
	return true
}

// HazardDecreasing reports whether the hazard rate h = -p'/p decreases
// across the sampled tail of the life function: the "risk fades with
// age" regime in which postponing work indefinitely keeps paying off.
func HazardDecreasing(l lifefn.Life, c float64) bool {
	span := lifefn.Span(l, 1e-15)
	hazard := func(t float64) float64 {
		p := l.P(t)
		if p <= 0 {
			return math.Inf(1)
		}
		return -l.Deriv(t) / p
	}
	prev := hazard(math.Max(2*c, span/1024))
	dec := false
	for t := math.Max(4*c, span/512); t <= span; t *= 2 {
		h := hazard(t)
		if h > prev*(1+1e-9) {
			return false
		}
		if h < prev*(1-1e-9) {
			dec = true
		}
		prev = h
	}
	return dec
}

// Admissibility is the outcome of the optimal-schedule existence
// decision.
type Admissibility struct {
	// Admits reports whether the life function admits an optimal
	// schedule under the paper's Corollary 3.2 criteria (see
	// AdmitsOptimal for the exact reading).
	Admits bool
	// Reason explains a negative decision.
	Reason string
	// BestPlan is the best guideline plan found while deciding (valid
	// whenever one could be constructed, even on a negative decision —
	// it is then the best-effort schedule, not a certified optimum).
	BestPlan Plan
	// AppendGain is the expected-work improvement available by
	// appending one more productive period to BestPlan's schedule
	// (diagnostic only).
	AppendGain float64
}

// AdmitsOptimal decides whether the life function admits an optimal
// schedule, reproducing the paper's Corollary 3.2 conclusions:
//
//   - the literal scan must find a witness t > c with
//     p(t) > -(t-c)·p'(t) (Corollary 3.2 as stated);
//   - for unbounded horizons, the margin must not fail permanently in
//     the tail while the hazard rate fades: when 1/h(t) < t-c for all
//     large t *and* h is decreasing, there is always a later, safer
//     time to postpone work to, and no schedule is unimprovable. This
//     is the reading under which the paper's example — p = (1+t)^{-d}
//     with d > 1 admits no optimal schedule — follows; the constant-
//     hazard (memoryless) scenario also fails the raw tail margin but
//     is exempted because its conditional risk never improves, and
//     [BCLR97] proves its equal-period optimum outright.
//
// The reproduction note: numerically, forward generation under
// system (3.6) for d > 1 still converges to a well-defined supremum at
// a critical t0 (see the E8 experiment), so the non-existence claim
// rests on this tail reading rather than on the literal corollary; the
// package preserves the paper's verdicts while exposing the literal
// test (ExistsProductive) separately.
func AdmitsOptimal(l lifefn.Life, c float64, opt PlanOptions) (Admissibility, error) {
	if _, ok := ExistsProductive(l, c); !ok {
		return Admissibility{Admits: false, Reason: "no t > c satisfies the Corollary 3.2 inequality"}, nil
	}
	if TailMarginFails(l, c) && HazardDecreasing(l, c) {
		ad := Admissibility{
			Admits: false,
			Reason: "Corollary 3.2 margin is negative throughout the tail while the hazard rate fades: work can be postponed indefinitely",
		}
		// Best-effort plan for diagnostics.
		if pl, err := NewPlanner(l, c, opt); err == nil {
			if plan, err := pl.PlanBest(); err == nil {
				ad.BestPlan = plan
				ad.AppendGain = bestAppendGain(l, c, plan.Schedule.Total())
			}
		}
		return ad, nil
	}
	pl, err := NewPlanner(l, c, opt)
	if err != nil {
		return Admissibility{}, err
	}
	plan, err := pl.PlanBest()
	if err != nil {
		if err == ErrNoSchedule {
			return Admissibility{Admits: false, Reason: "no productive schedule in the guideline bracket"}, nil
		}
		return Admissibility{}, fmt.Errorf("core: admissibility decision: %w", err)
	}
	return Admissibility{
		Admits:     true,
		BestPlan:   plan,
		AppendGain: bestAppendGain(l, c, plan.Schedule.Total()),
	}, nil
}

// bestAppendGain returns the largest expected work obtainable from one
// extra period appended at time tau: max over t > c of (t-c)·p(tau+t).
func bestAppendGain(l lifefn.Life, c, tau float64) float64 {
	horizon := l.Horizon()
	var hi float64
	if math.IsInf(horizon, 1) {
		hi = lifefn.Span(l, 1e-15) // far tail
	} else {
		hi = horizon - tau
	}
	if hi <= c {
		return 0
	}
	yield := func(t float64) float64 { return sched.PositiveSub(t, c) * l.P(tau+t) }
	_, best, err := numeric.MaximizeScan(yield, c*(1+1e-12), hi, 128, numeric.MaxOptions{Tol: 1e-9})
	if err != nil || best < 0 {
		return 0
	}
	return best
}
