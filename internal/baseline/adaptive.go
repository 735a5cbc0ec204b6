package baseline

import (
	"fmt"
	"math"
)

// Adaptive is an online, model-free chunking policy in the spirit of
// congestion control: it carries a chunk-size estimate across episodes,
// growing it multiplicatively after a fully successful episode (no work
// lost — chunks were probably too timid) and shrinking it after an
// episode that lost its first period (too bold). Within an episode it
// dispatches the current estimate repeatedly.
//
// It exists as the "no knowledge, no fitting" baseline between the
// risk-oblivious Doubling ramp and the trace-fitted guideline plans:
// experiment E21 measures how quickly it closes the gap to the oracle
// and where it plateaus. It implements nowsim.Policy structurally
// (NextPeriod/Reset/String) without importing that package.
type Adaptive struct {
	// Chunk is the current chunk-size estimate.
	chunk float64
	// Grow and Shrink are the multiplicative factors (defaults 1.25
	// and 0.5).
	grow, shrink float64
	// min and max clamp the estimate.
	min, max float64
	// Episode bookkeeping.
	dispatched int
	committed  int
}

// AdaptiveOptions configures NewAdaptive.
type AdaptiveOptions struct {
	// Initial chunk estimate; must exceed the overhead the caller will
	// simulate with.
	Initial float64
	// Grow > 1 is the success multiplier (default 1.25).
	Grow float64
	// Shrink in (0, 1) is the failure multiplier (default 0.5).
	Shrink float64
	// Min and Max clamp the estimate (defaults: Initial/16 and
	// Initial·256).
	Min, Max float64
}

// NewAdaptive returns an adaptive policy starting from opt.Initial.
func NewAdaptive(opt AdaptiveOptions) (*Adaptive, error) {
	if !(opt.Initial > 0) {
		return nil, fmt.Errorf("baseline: adaptive initial chunk must be positive, got %g", opt.Initial)
	}
	a := &Adaptive{
		chunk:  opt.Initial,
		grow:   opt.Grow,
		shrink: opt.Shrink,
		min:    opt.Min,
		max:    opt.Max,
	}
	if a.grow <= 1 {
		a.grow = 1.25
	}
	if !(a.shrink > 0) || a.shrink >= 1 {
		a.shrink = 0.5
	}
	if a.min <= 0 {
		a.min = opt.Initial / 16
	}
	if a.max <= a.min {
		a.max = opt.Initial * 256
	}
	return a, nil
}

// Chunk returns the current estimate (exported for learning-curve
// inspection).
func (a *Adaptive) Chunk() float64 { return a.chunk }

// NextPeriod implements the policy interface: dispatch the current
// estimate.
func (a *Adaptive) NextPeriod(elapsed float64) (float64, bool) {
	a.dispatched++
	return a.chunk, true
}

// Reset ends an episode and updates the estimate from what the episode
// revealed: the driver dispatches one more period than commits whenever
// the owner returned mid-period, so dispatched == committed means a
// fully voluntary episode (never happens with an infinite-chunk budget)
// and dispatched > committed means the last period died.
//
// Heuristic: if at least one period committed before the loss, the
// estimate was survivable — grow gently; if the very first period died,
// shrink hard.
func (a *Adaptive) Reset() {
	if a.dispatched > 0 {
		if a.committed == 0 {
			a.chunk *= a.shrink
		} else if a.committed >= a.dispatched {
			// Fully clean episode.
			a.chunk *= a.grow
		} else if a.committed >= 2 {
			a.chunk *= math.Sqrt(a.grow)
		}
		a.chunk = math.Min(math.Max(a.chunk, a.min), a.max)
	}
	a.dispatched, a.committed = 0, 0
}

// ObserveCommitted lets an episode driver report how many of the
// dispatched periods committed, for drivers that know (nowsim results
// carry the count); call immediately before Reset.
func (a *Adaptive) ObserveCommitted(committed int) { a.committed = committed }

// String names the policy.
func (a *Adaptive) String() string { return fmt.Sprintf("adaptive(chunk=%.3g)", a.chunk) }
