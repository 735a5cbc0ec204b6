// Package worstcase implements the guaranteed-work regime the paper
// defers to its sequel ("In a forthcoming sequel to this paper, we
// focus on (nearly) optimizing a worst-case, rather than expected,
// measure of a cycle-stealing episode's work output"), in the
// bounded-adversary formulation of [BCLR97]'s second half: the episode
// lasts L time units, during which a malicious adversary may interrupt
// the borrowed workstation up to q times; each interruption destroys
// the period in progress. The cycle-stealer's guaranteed work is the
// schedule's total productive time minus what the adversary's best q
// strikes can destroy:
//
//	G(S; q) = Σ (t_i - c) - Σ_{q largest periods} (t_i - c).
//
// With the whole lifespan available (Σ t_i = L), equal periods are
// optimal, and the guaranteed work of m equal periods is
// (m - q)·(L/m - c), maximized near m* = sqrt(qL/c):
//
//	G* ≈ L - 2·sqrt(qcL) + qc,
//
// the worst-case analogue of the paper's expected-work results (and of
// the sqrt(cL)-flavored t0 guidelines). The package provides the exact
// integer-m optimizer, the guaranteed-work functional for arbitrary
// schedules, and the adversary's optimal strike set.
package worstcase

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sched"
)

// GuaranteedWork returns G(S; q): the work schedule s banks if an
// optimal adversary interrupts at most q of its periods (each strike
// destroys one period's productive time; the paper's draconian loss,
// repeated q times). Periods with t <= c contribute nothing and are
// never worth striking.
func GuaranteedWork(s sched.Schedule, c float64, q int) float64 {
	if q < 0 {
		q = 0
	}
	works := make([]float64, 0, s.Len())
	total := 0.0
	for i := 0; i < s.Len(); i++ {
		w := sched.PositiveSub(s.Period(i), c)
		works = append(works, w)
		total += w
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(works)))
	for i := 0; i < q && i < len(works); i++ {
		total -= works[i]
	}
	return total
}

// Result is an optimal worst-case schedule.
type Result struct {
	Schedule sched.Schedule
	// Guaranteed is G(Schedule; q).
	Guaranteed float64
	// Periods is the chosen period count m.
	Periods int
}

// Optimal returns the schedule maximizing guaranteed work for lifespan
// L, overhead c and at most q adversarial interruptions: m equal
// periods of L/m with the best integer m (equalization is optimal — any
// imbalance hands the adversary a larger strike while total productive
// time is fixed at L - mc). If even the best m yields nothing (q too
// large or c too large), an empty schedule is returned.
func Optimal(l, c float64, q int) (Result, error) {
	if !(l > 0) || !(c > 0) {
		return Result{}, fmt.Errorf("worstcase: need positive lifespan and overhead, got L=%g c=%g", l, c)
	}
	if q < 0 {
		return Result{}, fmt.Errorf("worstcase: negative interruption budget %d", q)
	}
	mCont := math.Sqrt(float64(q) * l / c)
	best := Result{}
	tryM := func(m int) {
		if m <= q {
			return // adversary kills everything
		}
		t := l / float64(m)
		if t <= c {
			return
		}
		g := float64(m-q) * (t - c)
		if g > best.Guaranteed {
			periods := make([]float64, m)
			for i := range periods {
				periods[i] = t
			}
			s, err := sched.New(periods...)
			if err != nil {
				return
			}
			best = Result{Schedule: s, Guaranteed: g, Periods: m}
		}
	}
	// The continuous optimum is at sqrt(qL/c); check its integer
	// neighbours plus the boundary cases.
	for dm := -2; dm <= 2; dm++ {
		tryM(int(math.Round(mCont)) + dm)
	}
	tryM(q + 1)
	maxM := int(l / c)
	tryM(maxM)
	// Defensive sweep for small problems where rounding heuristics can
	// miss (cheap: maxM is small exactly then).
	if maxM <= 4096 {
		for m := q + 1; m <= maxM; m++ {
			tryM(m)
		}
	}
	return best, nil
}

// ClosedFormGuarantee returns the continuous-m approximation
// L - 2·sqrt(qcL) + qc of the optimal guaranteed work (exact when
// sqrt(qL/c) is an integer and positive; the integer optimum differs
// only by rounding).
func ClosedFormGuarantee(l, c float64, q int) float64 {
	g := l - 2*math.Sqrt(float64(q)*c*l) + float64(q)*c
	if g < 0 {
		return 0
	}
	return g
}
