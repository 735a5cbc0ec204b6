package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

// The Section 4 closed-form recurrences: the reference that
// GenerateFrom's generic forward induction of system (3.6) is checked
// against.

// Contains reports whether t lies within the bounds (inclusive).
func (b T0Bounds) Contains(t float64) bool { return t >= b.Lo && t <= b.Hi }

// UniformNextPeriod is recurrence (4.1) for the uniform-risk scenario
// p_{1,L}: t_k = t_{k-1} - c, which coincides with the optimal
// recurrence of [BCLR97]. The raw difference is deliberate: a
// non-positive result signals exhaustion to the schedule builder.
func UniformNextPeriod(tPrev, c float64) float64 {
	//lint:allow nonnegwork recurrence (4.1); non-positive result signals exhaustion
	return tPrev - c
}

// PolyNextPeriod is the Section 4.1 recurrence for p_{d,L}:
// t_k = ((1 + d(t_{k-1}-c)/T_{k-1})^{1/d} - 1)·T_{k-1}, where T_{k-1}
// is the boundary preceding the new period. For d = 1 it reduces to
// recurrence (4.1); note the d = 1 form is T-free only after algebraic
// simplification, which the general formula reproduces numerically.
func PolyNextPeriod(d int, tPrev, boundary, c float64) float64 {
	dd := float64(d)
	//lint:allow nonnegwork recurrence (4.1) generalized; sign carries exhaustion
	return (math.Pow(1+dd*(tPrev-c)/boundary, 1/dd) - 1) * boundary
}

// GeomDecNextPeriod is recurrence (4.6) for p_a(t) = a^{-t}:
// a^{-t_k} + t_{k-1}·ln a = 1 + c·ln a, solvable whenever
// t_{k-1} < c + 1/ln a. The second return value reports solvability.
func GeomDecNextPeriod(a, tPrev, c float64) (float64, bool) {
	lna := math.Log(a)
	arg := 1 + (c-tPrev)*lna
	if arg <= 0 {
		return 0, false
	}
	return -math.Log(arg) / lna, true
}

// GeomIncNextPeriod is recurrence (4.7) for the doubling-risk scenario:
// t_{k+1} = log2((t_k - c)·ln 2 + 1).
func GeomIncNextPeriod(tPrev, c float64) float64 {
	//lint:allow nonnegwork recurrence (4.7); sign carries exhaustion
	return math.Log2((tPrev-c)*math.Ln2 + 1)
}

// Recurrence yields the next period length from the previous period and
// the boundary (cumulative time) before the new period. ok=false ends
// generation.
type Recurrence func(tPrev, boundary float64) (t float64, ok bool)

// GenerateByRecurrence iterates a closed-form family recurrence from t0,
// applying the same termination rules as Planner.GenerateFrom: periods
// stay productive (> c), the cumulative time stays inside the horizon,
// survival stays above tailEps, and at most maxPeriods are emitted.
func GenerateByRecurrence(rec Recurrence, l lifefn.Life, c, t0 float64, opt PlanOptions) (sched.Schedule, error) {
	opt = opt.withDefaults()
	if !(t0 > c) {
		return sched.Schedule{}, fmt.Errorf("%w: t0=%g, c=%g", ErrBadT0, t0, c)
	}
	horizon := l.Horizon()
	periods := []float64{t0}
	tPrev, boundary := t0, t0
	for len(periods) < opt.MaxPeriods {
		if l.P(boundary) <= opt.TailEps {
			break
		}
		t, ok := rec(tPrev, boundary)
		if !ok || !(t > c) || math.IsNaN(t) {
			break
		}
		if !math.IsInf(horizon, 1) && boundary+t > horizon {
			break
		}
		periods = append(periods, t)
		tPrev, boundary = t, boundary+t
	}
	s, err := sched.New(periods...)
	if err != nil {
		return sched.Schedule{}, err
	}
	return sched.Normalize(s, c), nil
}

// FamilyRecurrence returns the Section 4 closed-form recurrence matching
// the given life function, or ok=false when the paper derives none for
// its type.
func FamilyRecurrence(l lifefn.Life, c float64) (Recurrence, bool) {
	switch f := l.(type) {
	case lifefn.Uniform:
		return func(tPrev, _ float64) (float64, bool) {
			//lint:allow nonnegwork forwards recurrence (4.1); caller stops on t <= c
			return UniformNextPeriod(tPrev, c), true
		}, true
	case lifefn.Poly:
		return func(tPrev, boundary float64) (float64, bool) {
			return PolyNextPeriod(f.D, tPrev, boundary, c), true
		}, true
	case lifefn.GeomDecreasing:
		return func(tPrev, _ float64) (float64, bool) {
			return GeomDecNextPeriod(f.A, tPrev, c)
		}, true
	case lifefn.GeomIncreasing:
		return func(tPrev, _ float64) (float64, bool) {
			return GeomIncNextPeriod(tPrev, c), true
		}, true
	default:
		return nil, false
	}
}

func TestUniformNextPeriod(t *testing.T) {
	if got := UniformNextPeriod(10, 1); got != 9 {
		t.Errorf("got %g, want 9", got)
	}
}

func TestPolyNextPeriodReducesToUniformAtD1(t *testing.T) {
	for _, tc := range []struct{ tPrev, boundary, c float64 }{
		{10, 10, 1}, {7.5, 30, 1}, {20, 100, 2.5},
	} {
		got := PolyNextPeriod(1, tc.tPrev, tc.boundary, tc.c)
		//lint:allow nonnegwork expected recurrence value, raw by definition
		want := tc.tPrev - tc.c
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("PolyNext(1, %g, %g, %g) = %g, want %g", tc.tPrev, tc.boundary, tc.c, got, want)
		}
	}
}

func TestGeomDecNextPeriodFixedPoint(t *testing.T) {
	// The fixed point of (4.6) is [BCLR97]'s optimal period equation
	// a^{-t} + t·ln a = 1 + c·ln a.
	a, c := math.Pow(2, 1.0/16), 1.0
	lna := math.Log(a)
	// Solve the fixed point by iteration.
	tStar := 5.0
	for i := 0; i < 300; i++ {
		tStar = c + 1/lna - math.Exp(-tStar*lna)/lna
	}
	next, ok := GeomDecNextPeriod(a, tStar, c)
	if !ok {
		t.Fatal("recurrence unsolvable at fixed point")
	}
	if math.Abs(next-tStar) > 1e-9 {
		t.Errorf("fixed point drifts: %g -> %g", tStar, next)
	}
}

func TestGeomDecNextPeriodUnsolvableBeyondLimit(t *testing.T) {
	// (4.6) is solvable only when t_{k-1} < c + 1/ln a.
	a, c := 2.0, 1.0
	limit := c + 1/math.Log(a)
	if _, ok := GeomDecNextPeriod(a, limit+0.5, c); ok {
		t.Error("recurrence solvable beyond its validity limit")
	}
	if _, ok := GeomDecNextPeriod(a, limit-0.1, c); !ok {
		t.Error("recurrence unsolvable inside its validity limit")
	}
}

func TestGeomIncNextPeriodKnownValues(t *testing.T) {
	// t=c gives log2(0+1) = 0; t = c+2 gives log2(2·ln2+1).
	if got := GeomIncNextPeriod(1, 1); got != 0 {
		t.Errorf("GeomIncNext(c, c) = %g, want 0", got)
	}
	want := math.Log2(2*math.Ln2 + 1)
	if got := GeomIncNextPeriod(3, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("got %g, want %g", got, want)
	}
}

func TestClosedFormRecurrencesMatchGenericInversion(t *testing.T) {
	// The Section 4 closed forms and the generic numeric inversion of
	// system (3.6) must generate the same schedules.
	for _, cse := range closedFormCases {
		t.Run(cse.name, func(t *testing.T) {
			rec, ok := FamilyRecurrence(cse.l, cse.c)
			if !ok {
				t.Fatal("no family recurrence")
			}
			closed, err := GenerateByRecurrence(rec, cse.l, cse.c, cse.t0, PlanOptions{MaxPeriods: 400})
			if err != nil {
				t.Fatal(err)
			}
			pl := mustPlanner(t, cse.l, cse.c)
			pl.opt.MaxPeriods = 400
			generic, err := pl.GenerateFrom(cse.t0)
			if err != nil {
				t.Fatal(err)
			}
			n := closed.Len()
			if generic.Len() < n {
				n = generic.Len()
			}
			if n == 0 {
				t.Fatal("no periods generated")
			}
			// Termination details may differ by one trailing period;
			// all shared periods must agree.
			if diff := closed.Len() - generic.Len(); diff < -1 || diff > 1 {
				t.Errorf("period counts differ: closed %d vs generic %d", closed.Len(), generic.Len())
			}
			for i := 0; i < n; i++ {
				a, b := closed.Period(i), generic.Period(i)
				if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
					t.Fatalf("period %d: closed %.10g vs generic %.10g", i, a, b)
				}
			}
		})
	}
}

func TestFamilyRecurrenceUnknownType(t *testing.T) {
	w := mustWeibull(2, 10)
	if _, ok := FamilyRecurrence(w, 1); ok {
		t.Error("recurrence offered for Weibull")
	}
}

func TestGenerateByRecurrenceRejectsShortT0(t *testing.T) {
	rec, _ := FamilyRecurrence(mustUniform(100), 1)
	if _, err := GenerateByRecurrence(rec, mustUniform(100), 1, 0.5, PlanOptions{}); err == nil {
		t.Error("t0 < c accepted")
	}
}

func TestUniformT0BoundsFormula(t *testing.T) {
	b := UniformT0Bounds(1, 100)
	if math.Abs(b.Lo-10) > 1e-12 || math.Abs(b.Hi-21) > 1e-12 {
		t.Errorf("bounds = [%g, %g], want [10, 21]", b.Lo, b.Hi)
	}
	if !b.Contains(math.Sqrt(200)) {
		t.Error("bracket excludes sqrt(2cL)")
	}
}

func TestPolyT0BoundsMatchUniformAtD1(t *testing.T) {
	u := UniformT0Bounds(2, 500)
	p := PolyT0Bounds(1, 2, 500)
	if math.Abs(u.Lo-p.Lo) > 1e-9 || math.Abs(u.Hi-p.Hi) > 1e-9 {
		t.Errorf("d=1 poly bounds [%g, %g] differ from uniform [%g, %g]", p.Lo, p.Hi, u.Lo, u.Hi)
	}
}

func TestGeomDecT0BoundsOrdering(t *testing.T) {
	for _, a := range []float64{1.01, 1.1, 2, 10} {
		b := GeomDecT0Bounds(a, 1)
		if !(b.Lo > 1 && b.Lo < b.Hi) {
			t.Errorf("a=%g: bounds [%g, %g] not ordered above c", a, b.Lo, b.Hi)
		}
	}
}

func TestGeomIncT0WindowBracketsPlannerT0(t *testing.T) {
	for _, L := range []float64{32, 64, 128} {
		w, err := GeomIncT0Window(L)
		if err != nil {
			t.Fatal(err)
		}
		if !(w.Lo < w.Hi && w.Hi <= 2*L) {
			t.Errorf("L=%g: window [%g, %g] malformed", L, w.Lo, w.Hi)
		}
		pl := mustPlanner(t, mustGeomInc(L), 1)
		plan, err := pl.PlanBest()
		if err != nil {
			t.Fatal(err)
		}
		// The window derives from bounds with low-order slack; allow 10%.
		if plan.T0 < w.Lo*0.9 || plan.T0 > w.Hi*1.1 {
			t.Errorf("L=%g: planner t0 = %g outside window [%g, %g]", L, plan.T0, w.Lo, w.Hi)
		}
	}
}
