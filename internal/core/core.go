// Package core implements the scheduling guidelines of Rosenberg,
// "Guidelines for Data-Parallel Cycle-Stealing in Networks of
// Workstations, I" (CMPSCI TR 98-15 / IPPS 1998) — the paper's primary
// contribution.
//
// Given a life function p (see internal/lifefn) and the per-period
// communication overhead c, the guidelines determine a near-optimal
// cycle-stealing schedule in two steps:
//
//  1. Every non-initial period length follows inductively from t_0
//     through system (3.6): p(T_k) = p(T_{k-1}) + (t_{k-1}-c)·p'(T_{k-1}).
//     GenerateFrom implements that forward induction for arbitrary
//     differentiable life functions by inverting p with lifefn.Inverse:
//     in closed form for the paper's four families, by root finding
//     otherwise.
//
//  2. The initial period length t_0 is bracketed by Theorem 3.2 (lower
//     bound, any differentiable p) and Theorem 3.3 (upper bounds for
//     convex and concave p), refined by Corollary 5.5 when the horizon
//     is finite. T0Bracket computes the bracket; PlanBest searches it
//     for the t_0 whose generated schedule maximizes expected work.
//     ExpectedWorkFrom scores each candidate t_0 in the one pass of
//     system (3.6) that generates its schedule, keeping no period; only
//     the chosen t_0's schedule is kept.
//
// The package also provides the closed-form period recurrences the paper
// derives for its three Section-4 families, the optimal-schedule
// existence test of Corollary 3.2, and the structural laws of Section 5
// (growth rates, period-count bounds, perturbation optimality) as
// checkable predicates.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// Common errors returned by the planners.
var (
	// ErrBadOverhead reports a nonpositive or non-finite overhead c.
	ErrBadOverhead = errors.New("core: overhead c must be positive and finite")
	// ErrBadT0 reports an initial period too short to be productive.
	ErrBadT0 = errors.New("core: initial period must exceed the overhead c")
	// ErrNoSchedule reports that no productive schedule exists for the
	// requested configuration (cf. Corollary 3.2).
	ErrNoSchedule = errors.New("core: life function admits no productive schedule")
)

// PlanOptions tunes schedule generation and the t0 search.
type PlanOptions struct {
	// MaxPeriods caps the number of generated periods; needed for
	// unbounded-horizon life functions whose optimal schedules are
	// infinite (e.g. geometric decreasing). If zero, 10_000 is used.
	MaxPeriods int
	// TailEps stops generation once p(T_k) falls below it: the omitted
	// tail of an infinite schedule then contributes less than
	// TailEps·t_k per period to expected work. If zero, 1e-12 is used.
	TailEps float64
	// ScanPoints is the grid resolution of the t0 search inside the
	// guideline bracket. If zero, 64 is used.
	ScanPoints int
}

func (o PlanOptions) withDefaults() PlanOptions {
	if o.MaxPeriods <= 0 {
		o.MaxPeriods = 10_000
	}
	if o.TailEps <= 0 {
		o.TailEps = 1e-12
	}
	if o.ScanPoints <= 0 {
		o.ScanPoints = 64
	}
	return o
}

// Plan is the result of a guideline planning run.
type Plan struct {
	// Schedule is the generated schedule in productive normal form.
	Schedule sched.Schedule
	// T0 is the initial period length the search settled on.
	T0 float64
	// Bracket is the guideline bracket [Lo, Hi] that contained the
	// search (Theorems 3.2/3.3, Corollary 5.5).
	Bracket Bracket
	// ExpectedWork is E(Schedule; p) under the planning life function.
	ExpectedWork float64
	// Evaluations counts the objective evaluations the t0 search spent.
	// Each is one pass of system (3.6) that generates a schedule and
	// sums its expected work (ExpectedWorkFrom).
	Evaluations int
}

// Planner derives guideline schedules for one (life function, overhead)
// configuration.
type Planner struct {
	life lifefn.Life
	c    float64
	opt  PlanOptions
}

// NewPlanner returns a planner for life function l with per-period
// overhead c.
func NewPlanner(l lifefn.Life, c float64, opt PlanOptions) (*Planner, error) {
	if !(c > 0) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("%w: got %g", ErrBadOverhead, c)
	}
	if l == nil {
		return nil, errors.New("core: nil life function")
	}
	return &Planner{life: l, c: c, opt: opt.withDefaults()}, nil
}

// Life returns the planner's life function.
func (pl *Planner) Life() lifefn.Life { return pl.life }

// Overhead returns the planner's communication overhead c.
func (pl *Planner) Overhead() float64 { return pl.c }

// StopReason records why the forward induction of system (3.6) stopped
// emitting periods. The distinction matters to the existence decision:
// a schedule whose generation stopped because the remaining survival
// probability was negligible (StopTail) has converged, while one whose
// recurrence died structurally (StopExhausted, StopUnproductive,
// StopFlat) leaves survival probability unexploited.
type StopReason int

const (
	// StopTail: p(T_k) fell below TailEps — the omitted tail is
	// negligible; the (possibly infinite) schedule has converged.
	StopTail StopReason = iota
	// StopExhausted: the recurrence's target survival dropped to zero
	// or below — the horizon (or the system's feasible range) is used
	// up.
	StopExhausted
	// StopUnproductive: the next prescribed period would not exceed c.
	StopUnproductive
	// StopFlat: the derivative vanished while survival remained
	// positive; the system prescribes nothing further.
	StopFlat
	// StopMaxPeriods: the MaxPeriods cap was reached.
	StopMaxPeriods
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopTail:
		return "tail-converged"
	case StopExhausted:
		return "target-exhausted"
	case StopUnproductive:
		return "next-period-unproductive"
	case StopFlat:
		return "derivative-flat"
	case StopMaxPeriods:
		return "max-periods"
	default:
		return "unknown"
	}
}

// Structural reports whether generation died for a structural reason,
// leaving non-negligible survival probability unexploited, as opposed
// to converging (StopTail) or being truncated by the cap.
func (r StopReason) Structural() bool {
	return r == StopExhausted || r == StopUnproductive || r == StopFlat
}

// GenerateFrom builds a schedule from the initial period length t0 by
// the forward induction of Corollary 3.1 (system (3.6)):
//
//	p(T_k) = p(T_{k-1}) + (t_{k-1} - c)·p'(T_{k-1}),
//
// inverting p at each step with lifefn.Inverse (in closed form for the
// paper's four families, with Brent's method otherwise). Generation
// stops when the next period would be unproductive (length <= c; the
// productive normal form of Proposition 2.1 excludes it), when the
// target survival drops to zero or below (the horizon is exhausted),
// when p(T_k) falls below TailEps, or at MaxPeriods.
func (pl *Planner) GenerateFrom(t0 float64) (sched.Schedule, error) {
	s, _, _, err := pl.generate(t0, true)
	return s, err
}

// ExpectedWorkFrom returns E(S; p) for the schedule S that GenerateFrom
// builds from t0, equal bit for bit to sched.ExpectedWork of
// GenerateFrom(t0), and fails exactly where GenerateFrom fails. It
// scores S in the pass that generates it and keeps no period, which
// makes it the objective of the t0 search.
func (pl *Planner) ExpectedWorkFrom(t0 float64) (float64, error) {
	_, e, _, err := pl.generate(t0, false)
	return e, err
}

// generate runs system (3.6) from t0 and returns E(S; p) of the
// schedule S it generates. With keep it also returns S: it collects the
// periods in a new slice and hands them to sched.Adopt, which
// normalizes them in place. Without keep it stores no period and
// returns the zero Schedule. Either way it fails where sched.Adopt's
// validation would, on a NaN, infinite or nonpositive period.
//
// E is summed as sched.ExpectedWork sums it: Kahan sums of the elapsed
// time and of (t ⊖ c)·p(elapsed), in period order. Only a first period
// clamped to a horizon at or below c is unproductive, and no period can
// follow it, so the normal form sched.Adopt gives S has the same E.
// The recurrence evaluates p at each boundary T_k, and that value is
// reused wherever the elapsed sum is T_k bit for bit; it usually is
// (where t_k <= T_{k-1}, T_k − T_{k-1} is exact), and p is evaluated at
// the elapsed sum where it is not, as when periods grow (Thm 5.2).
func (pl *Planner) generate(t0 float64, keep bool) (sched.Schedule, float64, StopReason, error) {
	if !(t0 > pl.c) {
		return sched.Schedule{}, 0, StopUnproductive, fmt.Errorf("%w: t0=%g, c=%g", ErrBadT0, t0, pl.c)
	}
	horizon := pl.life.Horizon()
	if !math.IsInf(horizon, 1) && t0 >= horizon {
		// A first period consuming the whole lifespan commits nothing
		// (p(T_0) = 0); clamp to the horizon so the caller's search sees
		// a smooth, zero-valued objective rather than an error.
		t0 = horizon
	}
	var periods []float64
	if keep {
		periods = append(make([]float64, 0, 64), t0)
	}
	var e, elapsed numeric.KahanSum
	tPrev, tk := t0, t0 // the last period and the boundary T_{k-1} it ends at
	reason := StopMaxPeriods
	for n := 1; ; n++ { // n periods generated, the last one tPrev
		if !(tPrev > 0) || math.IsInf(tPrev, 1) { // sched.Adopt rejects it
			return sched.Schedule{}, 0, reason, fmt.Errorf("%w: period %d has length %g", sched.ErrInvalidSchedule, n-1, tPrev)
		}
		// The cap stops the recurrence before it evaluates p at T_{k-1}.
		capped := n >= pl.opt.MaxPeriods
		var pPrev float64
		if !capped {
			pPrev = pl.life.P(tk)
		}
		elapsed.Add(tPrev)
		if w := sched.PositiveSub(tPrev, pl.c); w > 0 {
			p := pPrev
			//lint:allow floatcmp p(T_{k-1}) stands in for p(elapsed) only when the two times are the same float
			if at := elapsed.Value(); capped || at != tk {
				p = pl.life.P(at)
			}
			e.Add(w * p)
		}
		if capped {
			break
		}
		if pPrev <= pl.opt.TailEps {
			reason = StopTail
			break
		}
		//lint:allow nonnegwork recurrence (3.6) term; t_{k-1} > c is a planner invariant
		target := pPrev + (tPrev-pl.c)*pl.life.Deriv(tk)
		if target <= 0 {
			reason = StopExhausted
			break
		}
		if target >= pPrev {
			// p' vanished (flat region): no further productive period
			// can be prescribed by the system.
			reason = StopFlat
			break
		}
		next, err := lifefn.Inverse(pl.life, target, tk, pl.c)
		if err != nil {
			return sched.Schedule{}, 0, reason, fmt.Errorf("core: inverting system (3.6) at period %d: %w", n, err)
		}
		t := next - tk
		if t <= pl.c {
			reason = StopUnproductive
			break
		}
		if keep {
			periods = append(periods, t)
		}
		tPrev, tk = t, next
	}
	if !keep {
		return sched.Schedule{}, e.Value(), reason, nil
	}
	s, err := sched.Adopt(periods, pl.c)
	return s, e.Value(), reason, err
}

// ExpectedWork evaluates E(s; p) under the planner's configuration.
func (pl *Planner) ExpectedWork(s sched.Schedule) float64 {
	return sched.ExpectedWork(s, pl.life, pl.c)
}

// PlanBest computes the guideline bracket for t0, searches it for the
// initial period whose generated schedule maximizes expected work, and
// returns the resulting plan. It fails with ErrNoSchedule when the life
// function flunks the existence test of Corollary 3.2 over the bracket's
// span.
func (pl *Planner) PlanBest() (Plan, error) {
	br, err := pl.T0Bracket()
	if err != nil {
		return Plan{}, err
	}
	return pl.searchBracket(br)
}

// searchBracket is PlanBest's search for t0 inside br.
func (pl *Planner) searchBracket(br Bracket) (Plan, error) {
	evaluations := 0
	objective := func(t0 float64) float64 {
		evaluations++
		e, err := pl.ExpectedWorkFrom(t0)
		if err != nil {
			return math.Inf(-1)
		}
		return e
	}
	t0, _, err := numeric.MaximizeScan(objective, br.Lo, br.Hi, pl.opt.ScanPoints, numeric.MaxOptions{Tol: 1e-10})
	if err != nil {
		return Plan{}, fmt.Errorf("core: t0 search failed: %w", err)
	}
	s, e, _, err := pl.generate(t0, true)
	if err != nil {
		return Plan{}, err
	}
	if !(e > 0) {
		if _, ok := ExistsProductive(pl.life, pl.c); !ok {
			return Plan{}, ErrNoSchedule
		}
		return Plan{}, fmt.Errorf("core: search found no productive schedule in bracket [%g, %g]", br.Lo, br.Hi)
	}
	// The plan copies the schedule out at its length, leaving the
	// spare capacity behind.
	return Plan{Schedule: s.Prefix(s.Len()), T0: t0, Bracket: br, ExpectedWork: e, Evaluations: evaluations}, nil
}
