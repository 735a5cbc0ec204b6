package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

func mustPlanner(t *testing.T, l lifefn.Life, c float64) *Planner {
	t.Helper()
	pl, err := NewPlanner(l, c, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestNewPlannerRejectsBadInput(t *testing.T) {
	l, _ := lifefn.NewUniform(10)
	if _, err := NewPlanner(l, 0, PlanOptions{}); !errors.Is(err, ErrBadOverhead) {
		t.Errorf("c=0: err = %v", err)
	}
	if _, err := NewPlanner(l, math.Inf(1), PlanOptions{}); !errors.Is(err, ErrBadOverhead) {
		t.Errorf("c=Inf: err = %v", err)
	}
	if _, err := NewPlanner(nil, 1, PlanOptions{}); err == nil {
		t.Error("nil life accepted")
	}
}

func TestGenerateFromRejectsShortT0(t *testing.T) {
	l, _ := lifefn.NewUniform(100)
	pl := mustPlanner(t, l, 1)
	if _, err := pl.GenerateFrom(0.5); !errors.Is(err, ErrBadT0) {
		t.Errorf("err = %v, want ErrBadT0", err)
	}
}

func TestGenerateFromUniformMatchesClosedForm(t *testing.T) {
	// System (3.6) on p_{1,L} must reproduce t_k = t_{k-1} - c exactly
	// (equation 4.1).
	l, _ := lifefn.NewUniform(1000)
	pl := mustPlanner(t, l, 1)
	s, err := pl.GenerateFrom(45)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < s.Len(); k++ {
		want := s.Period(k-1) - 1
		if math.Abs(s.Period(k)-want) > 1e-6 {
			t.Fatalf("t_%d = %.9g, want %.9g", k, s.Period(k), want)
		}
	}
	// All periods productive (normal form).
	for k := 0; k < s.Len(); k++ {
		if s.Period(k) <= 1 {
			t.Fatalf("unproductive period %d = %g", k, s.Period(k))
		}
	}
	if s.Total() > 1000+1e-9 {
		t.Fatalf("schedule overruns lifespan: %g", s.Total())
	}
}

func TestGenerateFromSatisfiesSystem36(t *testing.T) {
	configs := []struct {
		name string
		l    lifefn.Life
		c    float64
		t0   float64
	}{
		{"uniform", mustUniform(1000), 1, 45},
		{"poly-d3", mustPoly(3, 500), 2, 120},
		{"geomdec", mustGeomDec(math.Pow(2, 1.0/32)), 1, 9},
		{"geominc", mustGeomInc(64), 1, 50},
		{"weibull", mustWeibull(0.8, 40), 1, 10},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			pl := mustPlanner(t, cfg.l, cfg.c)
			s, err := pl.GenerateFrom(cfg.t0)
			if err != nil {
				t.Fatal(err)
			}
			if s.Len() < 2 {
				t.Skipf("only %d periods generated", s.Len())
			}
			if r := Residual36(s, cfg.l, cfg.c); r > 1e-8 {
				t.Errorf("system (3.6) residual = %g", r)
			}
		})
	}
}

func TestGenerateFromGeomDecFixedPointIsEqualPeriods(t *testing.T) {
	// Starting at the fixed point of recurrence (4.6), all generated
	// periods must be (numerically) identical — [BCLR97]'s equal-period
	// structure.
	a := math.Pow(2, 1.0/32)
	l, _ := lifefn.NewGeomDecreasing(a)
	pl := mustPlanner(t, l, 1)
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Schedule
	if s.Len() < 10 {
		t.Fatalf("expected a long truncated-infinite schedule, got %d periods", s.Len())
	}
	t0 := s.Period(0)
	// The equal-period fixed point of recurrence (4.6) is unstable
	// (the map's derivative at the fixed point is a^{t*} > 1), so
	// root-finder noise amplifies geometrically along the schedule;
	// check the first 50 periods, where the drift is still tiny.
	limit := s.Len()
	if limit > 50 {
		limit = 50
	}
	for k := 1; k < limit; k++ {
		if math.Abs(s.Period(k)-t0) > 1e-5*t0 {
			t.Fatalf("period %d = %.9g differs from t0 = %.9g", k, s.Period(k), t0)
		}
	}
}

func TestPlanBestUniformNearSqrt2cL(t *testing.T) {
	// Equation (4.5): optimal t0 = sqrt(2cL) + low-order terms; the
	// guideline search must land within a few percent.
	for _, cfg := range []struct{ c, l float64 }{{1, 100}, {1, 1000}, {2, 5000}, {5, 10000}} {
		l, _ := lifefn.NewUniform(cfg.l)
		pl := mustPlanner(t, l, cfg.c)
		plan, err := pl.PlanBest()
		if err != nil {
			t.Fatal(err)
		}
		want := math.Sqrt(2 * cfg.c * cfg.l)
		if math.Abs(plan.T0-want)/want > 0.10 {
			t.Errorf("c=%g L=%g: t0 = %g, want ≈ %g", cfg.c, cfg.l, plan.T0, want)
		}
		// Paper bracket (4.4) must contain the found t0.
		b := UniformT0Bounds(cfg.c, cfg.l)
		if !b.Contains(plan.T0) {
			t.Errorf("c=%g L=%g: t0 = %g outside paper bracket [%g, %g]", cfg.c, cfg.l, plan.T0, b.Lo, b.Hi)
		}
	}
}

func TestPlanBestBracketContainsT0(t *testing.T) {
	for _, l := range []lifefn.Life{
		mustUniform(500), mustPoly(2, 500), mustPoly(4, 500),
		mustGeomDec(math.Pow(2, 1.0/16)), mustGeomInc(48),
	} {
		pl := mustPlanner(t, l, 1)
		plan, err := pl.PlanBest()
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if plan.T0 < plan.Bracket.Lo-1e-9 || plan.T0 > plan.Bracket.Hi+1e-9 {
			t.Errorf("%s: t0 = %g outside bracket [%g, %g]", l, plan.T0, plan.Bracket.Lo, plan.Bracket.Hi)
		}
		if !(plan.ExpectedWork > 0) {
			t.Errorf("%s: E = %g", l, plan.ExpectedWork)
		}
	}
}

// TestPlanBestRecordsSearchShape checks that a plan reports the
// search that produced it: a bracket of positive width and at least
// ScanPoints objective evaluations.
func TestPlanBestRecordsSearchShape(t *testing.T) {
	l, err := lifefn.NewUniform(100)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(l, 1, PlanOptions{ScanPoints: 16})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Evaluations < 16 {
		t.Errorf("Evaluations = %d, want >= ScanPoints (16)", plan.Evaluations)
	}
	if w := plan.Bracket.Hi - plan.Bracket.Lo; !(w > 0) {
		t.Errorf("bracket width %g, want > 0", w)
	}
}

func TestPlanBestGeomDecMatchesBCLROptimal(t *testing.T) {
	// The guideline schedule for a^{-t} must reach the exact optimal
	// expected work (t*-c)·a^{-t*}/(1-a^{-t*}) to high accuracy.
	a := math.Pow(2, 1.0/32)
	c := 1.0
	l, _ := lifefn.NewGeomDecreasing(a)
	pl := mustPlanner(t, l, c)
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	// Solve t + a^{-t}/ln a = c + 1/ln a for the optimal common period.
	lna := math.Log(a)
	tStar := plan.T0 // initialize near the guideline answer
	for i := 0; i < 200; i++ {
		tStar = c + 1/lna - math.Exp(-tStar*lna)/lna
	}
	//lint:allow nonnegwork closed-form optimum; tStar > c at the fixed point
	eStar := (tStar - c) * math.Exp(-tStar*lna) / (1 - math.Exp(-tStar*lna))
	if math.Abs(plan.ExpectedWork-eStar)/eStar > 1e-4 {
		t.Errorf("E = %.8g, optimal %.8g", plan.ExpectedWork, eStar)
	}
	if math.Abs(plan.T0-tStar)/tStar > 1e-3 {
		t.Errorf("t0 = %.8g, optimal %.8g", plan.T0, tStar)
	}
}

func TestPlanBestOnInadmissibleLifeIsBestEffort(t *testing.T) {
	// p(t) = (1+t)^{-2} admits no optimal schedule; PlanBest still
	// returns the best system-(3.6) schedule (sup not attained), and
	// AdmitsOptimal is the call that flags the non-existence.
	p, _ := lifefn.NewPowerLaw(2)
	pl := mustPlanner(t, p, 1)
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatalf("best-effort plan failed: %v", err)
	}
	if !(plan.ExpectedWork > 0) {
		t.Errorf("E = %g", plan.ExpectedWork)
	}
}

func TestExpectedWorkAccessors(t *testing.T) {
	l, _ := lifefn.NewUniform(10)
	pl := mustPlanner(t, l, 1)
	if pl.Overhead() != 1 {
		t.Error("Overhead accessor")
	}
	if pl.Life() == nil {
		t.Error("Life accessor")
	}
	s := sched.MustNew(4, 3)
	if got := pl.ExpectedWork(s); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("E = %g, want 2.4", got)
	}
}

// --- helpers ---

func mustUniform(l float64) lifefn.Life {
	u, err := lifefn.NewUniform(l)
	if err != nil {
		panic(err)
	}
	return u
}

func mustPoly(d int, l float64) lifefn.Life {
	p, err := lifefn.NewPoly(d, l)
	if err != nil {
		panic(err)
	}
	return p
}

func mustGeomDec(a float64) lifefn.Life {
	g, err := lifefn.NewGeomDecreasing(a)
	if err != nil {
		panic(err)
	}
	return g
}

func mustGeomInc(l float64) lifefn.Life {
	g, err := lifefn.NewGeomIncreasing(l)
	if err != nil {
		panic(err)
	}
	return g
}

func mustWeibull(k, scale float64) lifefn.Life {
	w, err := lifefn.NewWeibull(k, scale)
	if err != nil {
		panic(err)
	}
	return w
}
