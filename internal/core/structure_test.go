package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

func TestGrowthRateTheorem52OnGeneratedSchedules(t *testing.T) {
	// Theorem 5.2: t_{i+1} <= t_i - c for concave p; >= for convex p.
	cases := []struct {
		name string
		l    lifefn.Life
	}{
		{"uniform", mustUniform(1000)},
		{"poly2", mustPoly(2, 1000)},
		{"poly5", mustPoly(5, 1000)},
		{"geominc", mustGeomInc(64)},
		{"geomdec", mustGeomDec(math.Pow(2, 1.0/32))},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			pl := mustPlanner(t, cse.l, 1)
			plan, err := pl.PlanBest()
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckGrowthRate(plan.Schedule, cse.l.Shape(), 1, 1e-6); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestUniformGrowthIsExactlyC(t *testing.T) {
	// For the (both concave and convex) uniform-risk function the
	// growth law binds with equality: t_{i+1} = t_i - c.
	pl := mustPlanner(t, mustUniform(500), 2)
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGrowthRate(plan.Schedule, lifefn.Linear, 2, 1e-6); err != nil {
		t.Error(err)
	}
}

func TestCorollary51StrictDecreaseForConcave(t *testing.T) {
	for _, l := range []lifefn.Life{mustUniform(800), mustPoly(3, 800), mustGeomInc(48)} {
		pl := mustPlanner(t, l, 1)
		plan, err := pl.PlanBest()
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if err := CheckStrictlyDecreasing(plan.Schedule, 1e-9); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
}

func TestCorollary52PeriodCountFromT0(t *testing.T) {
	pl := mustPlanner(t, mustUniform(1000), 1)
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	if m := plan.Schedule.Len(); m > MaxPeriodsFromT0(plan.T0, 1) {
		t.Errorf("m = %d exceeds t0/c = %d", m, MaxPeriodsFromT0(plan.T0, 1))
	}
}

func TestCorollary53PeriodCountBound(t *testing.T) {
	// m < ceil(sqrt(2L/c + 1/4) + 1/2) for concave life functions, and
	// the uniform-risk optimum attains the floor variant (tightness).
	for _, cfg := range []struct{ c, L float64 }{{1, 100}, {1, 1000}, {2, 1000}, {5, 2000}} {
		pl := mustPlanner(t, mustUniform(cfg.L), cfg.c)
		plan, err := pl.PlanBest()
		if err != nil {
			t.Fatal(err)
		}
		bound := MaxPeriodsConcave(cfg.L, cfg.c)
		m := plan.Schedule.Len()
		if m >= bound+1 {
			t.Errorf("c=%g L=%g: m = %d not < bound %d", cfg.c, cfg.L, m, bound)
		}
		// Tightness: within 2 of the floor variant.
		floorBound := int(math.Floor(math.Sqrt(2*cfg.L/cfg.c+0.25) + 0.5))
		if m < floorBound-2 {
			t.Errorf("c=%g L=%g: m = %d far below tight bound %d", cfg.c, cfg.L, m, floorBound)
		}
	}
}

func TestCorollary54T0Lower(t *testing.T) {
	pl := mustPlanner(t, mustUniform(1000), 1)
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	lb := T0LowerFromPeriods(1000, 1, plan.Schedule.Len())
	// The searched t0 is accurate to the golden-section tolerance, not
	// exact; Corollary 5.4 must hold up to that search error.
	if plan.T0 < lb-1e-3*lb {
		t.Errorf("t0 = %g below Cor 5.4 bound %g (m=%d)", plan.T0, lb, plan.Schedule.Len())
	}
	if !math.IsNaN(T0LowerFromPeriods(10, 1, 0)) {
		t.Error("m=0 should give NaN")
	}
}

func TestTheorem51LocalOptimality(t *testing.T) {
	// Schedules satisfying (3.6) under concave p beat all their
	// δ-perturbations.
	deltas := []float64{1e-3, 1e-2, 0.1, 0.5, 1}
	for _, l := range []lifefn.Life{mustUniform(500), mustPoly(2, 500), mustGeomInc(48)} {
		pl := mustPlanner(t, l, 1)
		plan, err := pl.PlanBest()
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if v := CheckLocalOptimality(plan.Schedule, l, 1, deltas, 1e-9); len(v) != 0 {
			t.Errorf("%s: %d perturbations beat the guideline schedule, first: %+v", l, len(v), v[0])
		}
	}
}

func TestLocalOptimalityDetectsBadSchedule(t *testing.T) {
	// Sanity: a deliberately unbalanced schedule must be improvable.
	l := mustUniform(100)
	s := sched.MustNew(5, 40) // far from satisfying (3.6)
	v := CheckLocalOptimality(s, l, 1, []float64{1, 5, 10}, 1e-9)
	if len(v) == 0 {
		t.Error("no improving perturbation found for an unbalanced schedule")
	}
}

func TestPropertyPerturbationsNeverBeatGuidelineUniform(t *testing.T) {
	// Property over random δ and k for the uniform scenario.
	pl := mustPlanner(t, mustUniform(400), 1)
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	base := sched.ExpectedWork(plan.Schedule, pl.life, pl.c)
	check := func(ki uint8, di uint16) bool {
		k := int(ki) % (plan.Schedule.Len() - 1)
		delta := (float64(di)/65535)*2 - 1 // (-1, 1)
		if delta == 0 {
			return true
		}
		pert, err := plan.Schedule.Perturb(k, delta)
		if err != nil {
			return true // perturbation infeasible
		}
		return sched.ExpectedWork(pert, pl.life, pl.c) <= base+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Residual36 measures how well a schedule satisfies system (3.6): it
// returns the maximum absolute residual
// |p(T_k) - p(T_{k-1}) - (t_{k-1}-c)·p'(T_{k-1})| over all interior
// boundaries. Guideline-generated schedules should have residuals at
// the root-finder tolerance.
func Residual36(s sched.Schedule, l lifefn.Life, c float64) float64 {
	worst := 0.0
	bounds := s.Boundaries()
	for k := 1; k < s.Len(); k++ {
		tPrev := s.Period(k - 1)
		//lint:allow nonnegwork residual of recurrence (3.6), raw by definition
		want := l.P(bounds[k-1]) + (tPrev-c)*l.Deriv(bounds[k-1])
		if r := math.Abs(l.P(bounds[k]) - want); r > worst {
			worst = r
		}
	}
	//lint:allow probrange a residual of probabilities carries the probability dimension but is a diagnostic magnitude, not itself a probability
	return worst
}

func TestResidual36FlagsNonconformingSchedule(t *testing.T) {
	l := mustUniform(100)
	good := sched.MustNew(14, 13, 12) // satisfies t_{k+1} = t_k - 1 (c=1)
	if r := Residual36(good, l, 1); r > 1e-9 {
		t.Errorf("residual of conforming schedule = %g", r)
	}
	bad := sched.MustNew(14, 14, 14)
	if r := Residual36(bad, l, 1); r < 1e-3 {
		t.Errorf("residual of equal-period schedule = %g, want large", r)
	}
}

func TestGuidelinePlansAreStationary(t *testing.T) {
	// The strongest optimality certificate available: the analytic
	// gradient of E (whose vanishing is exactly system (3.1)) must be
	// near zero in EVERY coordinate of a guideline plan — forward
	// generation enforces the consecutive differences (3.6), and the t0
	// search closes the loop on the terminal condition.
	for _, l := range []lifefn.Life{
		mustUniform(800), mustPoly(3, 500),
		mustGeomDec(math.Pow(2, 1.0/24)), mustGeomInc(48),
	} {
		pl := mustPlanner(t, l, 1)
		plan, err := pl.PlanBest()
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		grad := sched.Gradient(plan.Schedule, l, 1)
		scale := plan.ExpectedWork / plan.Schedule.Total() // work density
		for k, g := range grad {
			if math.Abs(g) > 0.02*scale+1e-4 {
				t.Errorf("%s: ∂E/∂t_%d = %g (scale %g)", l, k, g, scale)
			}
		}
	}
}

func TestMaxPeriodsConcaveEdgeCases(t *testing.T) {
	if MaxPeriodsConcave(0, 1) != 0 || MaxPeriodsConcave(10, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
	if MaxPeriodsFromT0(0, 1) != 0 {
		t.Error("t0=0 should give 0")
	}
}
