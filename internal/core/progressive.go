package core

import (
	"fmt"

	"repro/internal/lifefn"
)

// Progressive plans a cycle-stealing episode period by period, the
// regimen Section 6 points out system (3.6) enables: because t_{k+1}
// is determined only after period k has ended, the scheduler can work
// from conditional rather than absolute probabilities. Each call to
// NextPeriod re-bases the life function on the survival observed so far
// and re-derives the best initial period for the remaining episode.
//
// Against the exact life function the progressive plan closely tracks
// the static plan (conditioning commutes with system (3.6)); its value
// is with approximate knowledge — e.g. a trace-fitted p that is
// re-fitted as the episode unfolds.
type Progressive struct {
	base    lifefn.Life
	c       float64
	opt     PlanOptions
	elapsed float64
}

// NewProgressive returns a progressive planner over life function l
// with overhead c.
func NewProgressive(l lifefn.Life, c float64, opt PlanOptions) (*Progressive, error) {
	if !(c > 0) {
		return nil, fmt.Errorf("%w: got %g", ErrBadOverhead, c)
	}
	return &Progressive{base: l, c: c, opt: opt.withDefaults()}, nil
}

// NextPeriod returns the next period length for an episode that has
// survived to the current elapsed time, or ok=false when no further
// productive period is advisable (the conditional life function admits
// no productive schedule, or the horizon is exhausted). On success the
// internal clock advances by the returned period, i.e. the caller is
// assumed to dispatch it.
func (pr *Progressive) NextPeriod() (t float64, ok bool, err error) {
	cond, err := lifefn.NewConditional(pr.base, pr.elapsed)
	if err != nil {
		return 0, false, nil // zero survival probability: episode over
	}
	if cond.Horizon() <= pr.c {
		return 0, false, nil
	}
	if _, exists := ExistsProductive(cond, pr.c); !exists {
		return 0, false, nil
	}
	planner, err := NewPlanner(cond, pr.c, pr.opt)
	if err != nil {
		return 0, false, err
	}
	plan, err := planner.PlanBest()
	if err != nil {
		if err == ErrNoSchedule {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("core: progressive re-plan at τ=%g: %w", pr.elapsed, err)
	}
	pr.elapsed += plan.T0
	return plan.T0, true, nil
}

// Reset rewinds the planner to the episode start.
func (pr *Progressive) Reset() { pr.elapsed = 0 }
