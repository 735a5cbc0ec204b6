package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

func TestScaleInvarianceOfGuidelines(t *testing.T) {
	// Changing time units — (p, c) → (p(·/k), kc) — must scale the
	// guideline schedule's periods and expected work by exactly k. This
	// is a strong end-to-end consistency check on the whole pipeline:
	// bounds, bracket, root-finding and search all have to commute with
	// the rescaling.
	base := mustUniform(500)
	cBase := 1.0
	basePlan, err := mustPlanner(t, base, cBase).PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0.25, 2, 7.5, 60} {
		scaled, err := lifefn.NewScaled(base, k)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mustPlanner(t, scaled, cBase*k).PlanBest()
		if err != nil {
			t.Fatalf("k=%g: %v", k, err)
		}
		if math.Abs(plan.T0-k*basePlan.T0) > 1e-4*k*basePlan.T0 {
			t.Errorf("k=%g: t0 = %g, want %g", k, plan.T0, k*basePlan.T0)
		}
		if math.Abs(plan.ExpectedWork-k*basePlan.ExpectedWork) > 1e-4*k*basePlan.ExpectedWork {
			t.Errorf("k=%g: E = %g, want %g", k, plan.ExpectedWork, k*basePlan.ExpectedWork)
		}
		if plan.Schedule.Len() != basePlan.Schedule.Len() {
			t.Errorf("k=%g: m = %d, want %d", k, plan.Schedule.Len(), basePlan.Schedule.Len())
		}
	}
}

func TestPropertyGeneratedSchedulesRespectStructure(t *testing.T) {
	// Property: for random concave configurations (d, L, c, t0), the
	// forward generation of system (3.6) yields schedules that are
	// strictly decreasing with steps of at least c (Thm 5.2 direction),
	// stay inside the lifespan, and have only productive periods.
	check := func(di, li, ci, ti uint8) bool {
		d := 1 + int(di%4)
		L := 100 + float64(li)*8
		c := 0.5 + float64(ci%8)/4 // 0.5 .. 2.25
		l, err := lifefn.NewPoly(d, L)
		if err != nil {
			return false
		}
		pl, err := NewPlanner(l, c, PlanOptions{})
		if err != nil {
			return false
		}
		br, err := pl.T0Bracket()
		if err != nil {
			return true // degenerate configuration: nothing to check
		}
		t0 := br.Lo + (br.Hi-br.Lo)*float64(ti)/255
		if t0 <= c {
			return true
		}
		s, err := pl.GenerateFrom(t0)
		if err != nil || s.Len() == 0 {
			return true
		}
		if s.Total() > L+1e-6 {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			if s.Period(i) <= c {
				return false
			}
			//lint:allow nonnegwork growth-law bound, comparison only
			if i > 0 && s.Period(i) > s.Period(i-1)-c+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExpectedWorkBoundedByMeanLifetime(t *testing.T) {
	// E(S; p) <= ∫p (the mean reclaim time): every unit of time
	// contributes at most p(τ)dτ of expected committed work. A global
	// sanity invariant tying sched, lifefn and numeric together.
	check := func(li, ci, ti uint8) bool {
		L := 50 + float64(li)
		c := 0.5 + float64(ci%6)/4
		l, err := lifefn.NewUniform(L)
		if err != nil {
			return false
		}
		mean, err := lifefn.MeanLifetime(l)
		if err != nil {
			return false
		}
		pl, err := NewPlanner(l, c, PlanOptions{})
		if err != nil {
			return false
		}
		t0 := c + 0.1 + float64(ti)/8
		if t0 >= L {
			return true
		}
		s, err := pl.GenerateFrom(t0)
		if err != nil {
			return true
		}
		return sched.ExpectedWork(s, pl.life, pl.c) <= mean+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
