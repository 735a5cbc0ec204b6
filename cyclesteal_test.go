package cyclesteal

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sched"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	life, err := UniformRisk(1000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(life, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(plan.ExpectedWork > 0) || plan.Schedule.Len() == 0 {
		t.Fatalf("degenerate plan: %+v", plan)
	}
	if got := ExpectedWork(plan.Schedule, life, 2); math.Abs(got-plan.ExpectedWork) > 1e-9 {
		t.Errorf("ExpectedWork disagrees with plan: %g vs %g", got, plan.ExpectedWork)
	}
	mean, ci := SimulateEpisodes(plan.Schedule, life, 2, 40_000, 9)
	if math.Abs(mean-plan.ExpectedWork) > 5*ci+1e-9 {
		t.Errorf("simulation %g ± %g far from analytic %g", mean, ci, plan.ExpectedWork)
	}
}

func TestFacadeConstructors(t *testing.T) {
	if _, err := UniformRisk(100); err != nil {
		t.Error(err)
	}
	if _, err := PolynomialRisk(3, 100); err != nil {
		t.Error(err)
	}
	hl, err := HalfLife(32)
	if err != nil {
		t.Fatal(err)
	}
	if got := hl.P(32); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(half-life) = %g, want 0.5", got)
	}
	if _, err := HalfLife(0); err == nil {
		t.Error("HalfLife(0) accepted")
	}
	if _, err := DoublingRisk(64); err != nil {
		t.Error(err)
	}
	if _, err := FromTraceSamples([]float64{0, 1, 2}, []float64{1, 0.5, 0}); err != nil {
		t.Error(err)
	}
}

func TestFacadeShapeConstants(t *testing.T) {
	u, _ := UniformRisk(10)
	if u.Shape() != ShapeLinear {
		t.Errorf("uniform shape = %v", u.Shape())
	}
	d, _ := DoublingRisk(10)
	if d.Shape() != ShapeConcave {
		t.Errorf("doubling shape = %v", d.Shape())
	}
	h, _ := HalfLife(10)
	if h.Shape() != ShapeConvex {
		t.Errorf("half-life shape = %v", h.Shape())
	}
	_ = ShapeUnknown
}

func TestFacadePlanWithOptions(t *testing.T) {
	life, _ := HalfLife(32)
	plan, err := PlanWith(life, 1, PlanOptions{MaxPeriods: 50})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Schedule.Len() > 50 {
		t.Errorf("MaxPeriods ignored: %d periods", plan.Schedule.Len())
	}
}

func TestNewScheduleRejectsInvalidPeriods(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSchedule(4, bad); !errors.Is(err, sched.ErrInvalidSchedule) {
			t.Errorf("NewSchedule(4, %g) error = %v, want ErrInvalidSchedule", bad, err)
		}
	}
}

func TestNewScheduleCopiesPeriods(t *testing.T) {
	periods := []float64{4, 3}
	s, err := NewSchedule(periods...)
	if err != nil {
		t.Fatal(err)
	}
	periods[0] = 100
	if s.Period(0) != 4 || s.Len() != 2 {
		t.Errorf("schedule = %v, want [4 3] unaffected by the caller's slice", s)
	}
}
