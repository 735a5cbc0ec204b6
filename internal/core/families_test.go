package core

import (
	"math"
	"testing"
)

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
	//lint:allow floatcmp Width is defined as exactly Hi-Lo
	if b.Width() != b.Hi-b.Lo {
		t.Error("Width wrong")
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
