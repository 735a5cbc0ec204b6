// Package baseline provides the reference scheduling policies the
// guideline schedules are compared against in the experiments:
//
//   - AllAtOnce: one period spanning the whole opportunity — what a
//     cycle-stealer with no risk model and full trust would do;
//   - FixedChunk / BestFixedChunk: the natural "pick a chunk size"
//     policies practitioners use;
//   - Greedy: the myopic recipe discussed in Section 6 of the paper,
//     which maximizes each period's own expected yield in isolation;
//   - Doubling: a risk-oblivious geometric ramp in the spirit of the
//     randomized commitment strategies of Awerbuch, Azar, Fiat and
//     Leighton (STOC 1996), reference [2].
//
// All constructors return schedules in the productive normal form of
// Proposition 2.1.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// AllAtOnce returns the single-period schedule covering the entire
// opportunity. Under any life function that actually decays it commits
// work only with probability p(span), making it the canonical loser the
// paper's Section 1 tension argument starts from.
func AllAtOnce(l lifefn.Life, c float64) (sched.Schedule, error) {
	sp := lifefn.Span(l, 1e-12)
	if sp <= c {
		return sched.Schedule{}, fmt.Errorf("baseline: span %g does not exceed overhead %g", sp, c)
	}
	s, err := sched.New(sp)
	if err != nil {
		return sched.Schedule{}, err
	}
	return sched.Normalize(s, c), nil
}

// FixedChunk tiles the opportunity with periods of length t (the final
// fragment is kept only if productive).
func FixedChunk(l lifefn.Life, c, t float64) (sched.Schedule, error) {
	if !(t > 0) {
		return sched.Schedule{}, fmt.Errorf("baseline: chunk length must be positive, got %g", t)
	}
	sp := lifefn.Span(l, 1e-12)
	n := int(sp / t)
	if n > 1_000_000 {
		n = 1_000_000
	}
	periods := make([]float64, 0, n+1)
	total := 0.0
	for i := 0; i < n; i++ {
		periods = append(periods, t)
		total += t
	}
	if rem := sp - total; rem > c {
		periods = append(periods, rem)
	}
	if len(periods) == 0 {
		return sched.Schedule{}, fmt.Errorf("baseline: no chunks fit span %g", sp)
	}
	s, err := sched.New(periods...)
	if err != nil {
		return sched.Schedule{}, err
	}
	return sched.Normalize(s, c), nil
}

// BestFixedChunk searches chunk lengths in (c, span] for the fixed-chunk
// schedule with the highest expected work — the strongest "one number to
// tune" baseline.
func BestFixedChunk(l lifefn.Life, c float64) (sched.Schedule, error) {
	sp := lifefn.Span(l, 1e-12)
	if sp <= c {
		return sched.Schedule{}, fmt.Errorf("baseline: span %g does not exceed overhead %g", sp, c)
	}
	objective := func(t float64) float64 {
		s, err := FixedChunk(l, c, t)
		if err != nil {
			return math.Inf(-1)
		}
		return sched.ExpectedWork(s, l, c)
	}
	t, _, err := numeric.MaximizeScan(objective, c*(1+1e-9), sp, 128, numeric.MaxOptions{Tol: 1e-9})
	if err != nil {
		return sched.Schedule{}, fmt.Errorf("baseline: fixed-chunk search: %w", err)
	}
	return FixedChunk(l, c, t)
}

// GreedyOptions tunes the greedy scheduler.
type GreedyOptions struct {
	// MaxPeriods caps the schedule length; 10_000 if zero.
	MaxPeriods int
	// MinGain stops the greedy loop once a period's expected yield
	// drops below it; 1e-12 if zero.
	MinGain float64
}

// Greedy builds a schedule by the myopic recipe of Section 6: with the
// episode having reached time τ, the next period length maximizes the
// period's own expected committed work (t - c)·p(τ + t). The paper
// observes this recipe is optimal for the geometrically decreasing
// lifespan scenario and suboptimal for the uniform-risk one; the E7
// experiment quantifies both.
func Greedy(l lifefn.Life, c float64, opt GreedyOptions) (sched.Schedule, error) {
	if opt.MaxPeriods <= 0 {
		opt.MaxPeriods = 10_000
	}
	if opt.MinGain <= 0 {
		opt.MinGain = 1e-12
	}
	sp := lifefn.Span(l, 1e-12)
	var periods []float64
	tau := 0.0
	for len(periods) < opt.MaxPeriods && tau < sp {
		hi := sp - tau
		if hi <= c {
			break
		}
		yield := func(t float64) float64 { return (t - c) * l.P(tau+t) }
		t, gain, err := numeric.MaximizeScan(yield, c*(1+1e-12), hi, 64, numeric.MaxOptions{Tol: 1e-11})
		if err != nil {
			return sched.Schedule{}, fmt.Errorf("baseline: greedy step at τ=%g: %w", tau, err)
		}
		if gain < opt.MinGain || t <= c {
			break
		}
		periods = append(periods, t)
		tau += t
	}
	if len(periods) == 0 {
		return sched.Schedule{}, fmt.Errorf("baseline: greedy found no productive period")
	}
	s, err := sched.New(periods...)
	if err != nil {
		return sched.Schedule{}, err
	}
	return sched.Normalize(s, c), nil
}

// Doubling returns the risk-oblivious geometric ramp: periods
// 2c, 4c, 8c, ... until the opportunity is covered. Doubling commits
// at least a constant fraction of any prefix it survives while paying
// only logarithmically many overheads — the shape of the [2]-style
// strategies for stealing cycles with no risk knowledge.
func Doubling(l lifefn.Life, c float64) (sched.Schedule, error) {
	sp := lifefn.Span(l, 1e-12)
	if sp <= 2*c {
		return sched.Schedule{}, fmt.Errorf("baseline: span %g too short for doubling with c=%g", sp, c)
	}
	var periods []float64
	t, total := 2*c, 0.0
	for total+t <= sp && len(periods) < 200 {
		periods = append(periods, t)
		total += t
		t *= 2
	}
	if rem := sp - total; rem > c {
		periods = append(periods, rem)
	}
	s, err := sched.New(periods...)
	if err != nil {
		return sched.Schedule{}, err
	}
	return sched.Normalize(s, c), nil
}
