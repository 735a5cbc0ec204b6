// Package sched defines cycle-stealing schedules and the work functional
// of Rosenberg's model: a schedule is the sequence of period lengths
// t_0, t_1, ... into which workstation A partitions workstation B's
// potential availability, and its quality is the expected committed work
// E(S; p) = Σ (t_i ⊖ c) p(T_i) of equation (2.1).
//
// The package also implements the schedule transformations the paper's
// proofs revolve around — shifts S^{⟨k,±δ⟩}, perturbations S^{[k,±δ]},
// merges and splits — and the productive normal form of Proposition 2.1.
package sched

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/lifefn"
	"repro/internal/numeric"
)

// ErrInvalidSchedule reports a schedule with nonpositive or non-finite
// period lengths.
var ErrInvalidSchedule = errors.New("sched: invalid schedule")

// Schedule is a finite cycle-stealing schedule: the ordered period
// lengths t_0, t_1, .... Period k occupies the half-open time interval
// (T_{k-1}, T_k]. The zero value is the empty schedule, which performs
// no work.
//
// Infinite schedules (which arise for unbounded-horizon life functions)
// are represented by finite prefixes long enough that the omitted tail's
// contribution to expected work is negligible; the planners in
// internal/core and internal/optimal choose that prefix length.
type Schedule struct {
	periods []float64 //cs:unit time
}

// New returns a schedule with the given period lengths. Every period
// must be positive and finite.
//
//cs:unit periods=time
func New(periods ...float64) (Schedule, error) {
	if err := validate(periods); err != nil {
		return Schedule{}, err
	}
	return Schedule{periods: append([]float64(nil), periods...)}, nil
}

// Adopt is New followed by Normalize without either copy: it validates
// periods as New does, rewrites them in place into the productive
// normal form and returns a schedule over their backing array. The
// schedule takes ownership of the slice: the caller must not modify it
// while the schedule is in use.
//
//cs:unit periods=time c=time
func Adopt(periods []float64, c float64) (Schedule, error) {
	if err := validate(periods); err != nil {
		return Schedule{}, err
	}
	return Schedule{periods: normalize(periods[:0], periods, c)}, nil
}

//cs:unit periods=time
func validate(periods []float64) error {
	for i, t := range periods {
		if !(t > 0) || math.IsInf(t, 0) || math.IsNaN(t) {
			return fmt.Errorf("%w: period %d has length %g", ErrInvalidSchedule, i, t)
		}
	}
	return nil
}

// MustNew is New but panics on invalid input; for literals in tests and
// examples.
//
//cs:unit periods=time
func MustNew(periods ...float64) Schedule {
	s, err := New(periods...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of periods m.
func (s Schedule) Len() int { return len(s.periods) }

// Period returns t_k.
//
//cs:unit return=time
func (s Schedule) Period(k int) float64 { return s.periods[k] }

// Periods returns a copy of the period lengths.
//
//cs:unit return=time
func (s Schedule) Periods() []float64 { return append([]float64(nil), s.periods...) }

// Boundary returns T_k = t_0 + ... + t_k, the end time of period k.
//
//cs:unit return=time
func (s Schedule) Boundary(k int) float64 {
	var sum numeric.KahanSum
	for i := 0; i <= k; i++ {
		sum.Add(s.periods[i])
	}
	return sum.Value()
}

// Boundaries returns all period end times T_0, ..., T_{m-1}.
//
//cs:unit return=time
func (s Schedule) Boundaries() []float64 {
	out := make([]float64, len(s.periods))
	var sum numeric.KahanSum
	for i, t := range s.periods {
		sum.Add(t)
		out[i] = sum.Value()
	}
	return out
}

// Total returns the schedule's overall duration T_{m-1} (0 when empty).
//
//cs:unit return=time
func (s Schedule) Total() float64 {
	var sum numeric.KahanSum
	for _, t := range s.periods {
		sum.Add(t)
	}
	return sum.Value()
}

// String renders the schedule compactly: "[t0 t1 ... | total=T]".
func (s Schedule) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range s.periods {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.6g", t)
	}
	fmt.Fprintf(&b, " | total=%.6g]", s.Total())
	return b.String()
}

// PositiveSub is the paper's ⊖ operator: max(0, x-y). This is the one
// blessed site where a difference of times becomes work, so the
// conversion below carries an explicit unitflow suppression.
//
//cs:unit x=time y=time return=work
func PositiveSub(x, y float64) float64 {
	if d := x - y; d > 0 {
		return d //lint:allow unitflow x ⊖ y is the sanctioned time→work conversion
	}
	return 0
}

// TimeFor returns the period length that commits w units of work under
// per-period overhead c: the inverse of the ⊖ operator on productive
// periods, PositiveSub(TimeFor(w, c), c) == w for w > 0. It is the
// model's unit-work-rate assumption made explicit — a period of wall
// length t computes for t-c of it — and the sanctioned work→time
// conversion, mirroring PositiveSub in the other direction.
//
//cs:unit w=work c=time return=time
func TimeFor(w, c float64) float64 {
	return w + c //lint:allow unitflow committed work re-enters the clock one-for-one under the unit work rate
}

// ExpectedWork evaluates E(S; p) = Σ_i (t_i ⊖ c) p(T_i), equation (2.1):
// the expected committed work of schedule s under life function l with
// per-period communication overhead c. It panics if c is negative.
//
//cs:hotpath expected-work
//cs:unit c=time return=work
func ExpectedWork(s Schedule, l lifefn.Life, c float64) float64 {
	if c < 0 {
		panic(fmt.Sprintf("sched: negative overhead c=%g", c)) //lint:allow hotalloc panic path, never taken in steady state
	}
	var e numeric.KahanSum
	var elapsed numeric.KahanSum
	for _, t := range s.periods {
		elapsed.Add(t)
		if w := PositiveSub(t, c); w > 0 {
			e.Add(w * l.P(elapsed.Value()))
		}
	}
	return e.Value()
}

// RealizedWork returns the work actually committed when the owner
// reclaims the workstation at time r: the sum of t_i ⊖ c over every
// period that completes strictly before the reclamation ("if B is
// reclaimed by time T_k, the episode ends" — a period ending exactly at
// the reclaim instant is lost). The episode simulator and the
// analytic E(S; p) meet through this function: E[RealizedWork(s, c, R)]
// with P(R > t) = p(t) equals ExpectedWork(s, l, c).
//
//cs:unit c=time r=time return=work
func RealizedWork(s Schedule, c, r float64) float64 {
	var w numeric.KahanSum
	var elapsed numeric.KahanSum
	for _, t := range s.periods {
		elapsed.Add(t)
		if !(elapsed.Value() < r) {
			break
		}
		w.Add(PositiveSub(t, c))
	}
	return w.Value()
}

// Gradient returns ∂E/∂t_k for every period of the schedule:
//
//	∂E/∂t_k = p(T_k) + Σ_{j >= k} (t_j - c)·p'(T_j),
//
// since stretching period k delays every later boundary too. Setting
// these partials to zero is exactly the paper's system (3.1) — so a
// near-zero gradient is an independent, coordinate-wise certificate
// that a schedule is stationary, complementing core.Residual36 (which
// checks the consecutive-difference form (3.6)). Periods at or below c
// contribute their boundary-shift terms but no direct work term,
// matching the one-sided derivative of the ⊖ operator from above.
//
// The result slice doubles as boundary storage: the forward pass
// leaves T_k in grad[k], and the backward pass reads each boundary just
// before overwriting it.
//
//cs:unit c=time
func Gradient(s Schedule, l lifefn.Life, c float64) []float64 {
	m := s.Len()
	grad := make([]float64, m)
	var sum numeric.KahanSum
	for k, t := range s.periods {
		sum.Add(t)
		grad[k] = sum.Value()
	}
	// Suffix sums of (t_j - c)·p'(T_j), built back to front.
	suffix := 0.0
	for k := m - 1; k >= 0; k-- {
		bound := grad[k]
		direct := 0.0
		if w := PositiveSub(s.periods[k], c); w > 0 {
			suffix += w * l.Deriv(bound)
			direct = l.P(bound)
		}
		grad[k] = direct + suffix
	}
	return grad
}

// ProfileStep is one step of a schedule's realized-work profile: for
// reclaim times r with From < r <= Until, exactly Work units commit.
type ProfileStep struct {
	From, Until float64 //cs:unit time
	Work        float64 //cs:unit work
}

// WorkProfile returns the schedule's realized work as a step function
// of the reclaim time: RealizedWork(s, c, r) == step.Work for the step
// containing r. The last step has Until = +Inf (the owner never
// returned). The profile is what worst-case and competitive analyses
// consume wholesale.
//
//cs:unit c=time
func WorkProfile(s Schedule, c float64) []ProfileStep {
	steps := make([]ProfileStep, 0, s.Len()+1)
	var elapsed numeric.KahanSum
	prevTime := 0.0
	acc := 0.0
	for _, t := range s.periods {
		elapsed.Add(t)
		steps = append(steps, ProfileStep{From: prevTime, Until: elapsed.Value(), Work: acc})
		acc += PositiveSub(t, c)
		prevTime = elapsed.Value()
	}
	steps = append(steps, ProfileStep{From: prevTime, Until: math.Inf(1), Work: acc})
	return steps
}

// CommitProbabilities returns the exact distribution of the number of
// committed periods under life function l: element k is the probability
// that exactly k periods complete before the owner returns,
//
//	P(k) = p(T_{k-1}) - p(T_k)  for k < m (with T_{-1} = 0),
//	P(m) = p(T_{m-1}),
//
// where m = s.Len(). The returned slice has m+1 elements summing to 1.
// It powers the distribution-level (chi-square) validation of the
// episode simulator, beyond the mean identity E(S;p).
//
//cs:unit return=probability
func CommitProbabilities(s Schedule, l lifefn.Life) []float64 {
	m := s.Len()
	probs := make([]float64, m+1) //cs:unit probability
	prev := 1.0
	var elapsed numeric.KahanSum
	for k := 0; k < m; k++ {
		elapsed.Add(s.periods[k])
		cur := l.P(elapsed.Value())
		// Clamp before storing: a non-monotone (numerically noisy) life
		// function may give p(T_k) > p(T_{k-1}), and the stored mass
		// must already be a probability.
		d := prev - cur
		if d < 0 {
			d = 0
		}
		probs[k] = d
		prev = cur
	}
	probs[m] = prev
	return probs
}

// Normalize returns the productive normal form of Proposition 2.1: a
// schedule that accomplishes at least as much expected work and whose
// periods all have length > c. Each unproductive period (length <= c) is
// merged into its successor — the merged period ends at the same instant
// with a longer productive part, so no term of (2.1) decreases — and an
// unproductive final period, which contributes nothing, is dropped.
//
//cs:unit c=time
func Normalize(s Schedule, c float64) Schedule {
	return Schedule{periods: normalize(make([]float64, 0, len(s.periods)), s.periods, c)}
}

// normalize appends the productive normal form of periods to dst and
// returns it. dst may share periods' backing array from its start:
// every write lands at or before the period being read.
//
//cs:unit periods=time c=time
func normalize(dst, periods []float64, c float64) []float64 {
	if c < 0 {
		panic(fmt.Sprintf("sched: negative overhead c=%g", c))
	}
	carry := 0.0
	for _, t := range periods {
		t += carry
		carry = 0
		if t <= c {
			carry = t
			continue
		}
		dst = append(dst, t)
	}
	// A trailing carry is an unproductive final period: drop it.
	return dst
}

// Shift returns S^{⟨k,δ⟩}: the schedule with t_k replaced by t_k + delta
// (negative delta shrinks the period). It fails if the adjusted period
// would not be positive.
//
//cs:unit delta=time
func (s Schedule) Shift(k int, delta float64) (Schedule, error) {
	if k < 0 || k >= len(s.periods) {
		return Schedule{}, fmt.Errorf("%w: shift index %d of %d", ErrInvalidSchedule, k, len(s.periods))
	}
	t := s.periods[k] + delta
	if !(t > 0) {
		return Schedule{}, fmt.Errorf("%w: shift makes period %d nonpositive (%g)", ErrInvalidSchedule, k, t)
	}
	p := s.Periods()
	p[k] = t
	return Schedule{periods: p}, nil
}

// Perturb returns S^{[k,δ]}: t_k grows by delta while t_{k+1} shrinks by
// delta (Section 5.1), preserving every boundary except T_k. It fails if
// either adjusted period would not be positive.
//
//cs:unit delta=time
func (s Schedule) Perturb(k int, delta float64) (Schedule, error) {
	if k < 0 || k+1 >= len(s.periods) {
		return Schedule{}, fmt.Errorf("%w: perturb index %d of %d", ErrInvalidSchedule, k, len(s.periods))
	}
	a := s.periods[k] + delta
	b := s.periods[k+1] - delta
	if !(a > 0) || !(b > 0) {
		return Schedule{}, fmt.Errorf("%w: perturbation δ=%g empties period %d or %d", ErrInvalidSchedule, delta, k, k+1)
	}
	p := s.Periods()
	p[k], p[k+1] = a, b
	return Schedule{periods: p}, nil
}

// MergeFirst returns the schedule t_0+t_1, t_2, ... used in the proof of
// Theorem 3.2. It fails on schedules with fewer than two periods.
func (s Schedule) MergeFirst() (Schedule, error) {
	if len(s.periods) < 2 {
		return Schedule{}, fmt.Errorf("%w: cannot merge first periods of %d-period schedule", ErrInvalidSchedule, len(s.periods))
	}
	p := make([]float64, len(s.periods)-1)
	p[0] = s.periods[0] + s.periods[1]
	copy(p[1:], s.periods[2:])
	return Schedule{periods: p}, nil
}

// SplitFirst returns the schedule tHat, t_0-tHat, t_1, ... used in the
// proof of Lemma 3.1. tHat must lie strictly inside (0, t_0).
//
//cs:unit tHat=time
func (s Schedule) SplitFirst(tHat float64) (Schedule, error) {
	if len(s.periods) == 0 {
		return Schedule{}, fmt.Errorf("%w: cannot split empty schedule", ErrInvalidSchedule)
	}
	if !(tHat > 0) || !(tHat < s.periods[0]) {
		return Schedule{}, fmt.Errorf("%w: split point %g outside (0, %g)", ErrInvalidSchedule, tHat, s.periods[0])
	}
	p := make([]float64, 0, len(s.periods)+1)
	p = append(p, tHat, s.periods[0]-tHat)
	p = append(p, s.periods[1:]...)
	return Schedule{periods: p}, nil
}

// Prefix returns the schedule consisting of the first n periods.
func (s Schedule) Prefix(n int) Schedule {
	if n > len(s.periods) {
		n = len(s.periods)
	}
	if n < 0 {
		n = 0
	}
	return Schedule{periods: append([]float64(nil), s.periods[:n]...)}
}

// Append returns the schedule with extra periods appended.
//
//cs:unit periods=time
func (s Schedule) Append(periods ...float64) (Schedule, error) {
	p := append(s.Periods(), periods...)
	return New(p...)
}

// Equal reports whether two schedules have the same periods within tol.
func (s Schedule) Equal(o Schedule, tol float64) bool {
	if len(s.periods) != len(o.periods) {
		return false
	}
	for i := range s.periods {
		if math.Abs(s.periods[i]-o.periods[i]) > tol {
			return false
		}
	}
	return true
}
