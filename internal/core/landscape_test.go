package core

import (
	"testing"
)

func TestT0LandscapeSingleMaximumStandardScenarios(t *testing.T) {
	for _, l := range []struct {
		name string
		pl   *Planner
	}{
		{"uniform", mustPlanner(t, mustUniform(800), 1)},
		{"geominc", mustPlanner(t, mustGeomInc(48), 1)},
	} {
		maxima, err := l.pl.T0Landscape(256, 1e-6)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if len(maxima) != 1 {
			t.Errorf("%s: %d global-tied maxima: %+v", l.name, len(maxima), maxima)
		}
		if len(maxima) > 0 && !(maxima[0].E > 0) {
			t.Errorf("%s: degenerate maximum %+v", l.name, maxima[0])
		}
	}
}

func TestT0LandscapeMatchesPlanBest(t *testing.T) {
	pl := mustPlanner(t, mustUniform(500), 2)
	maxima, err := pl.T0Landscape(512, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	if len(maxima) == 0 {
		t.Fatal("no maxima")
	}
	best := maxima[0]
	for _, m := range maxima {
		if m.E > best.E {
			best = m
		}
	}
	// Grid maximum can only fall slightly short of the refined search.
	if best.E > plan.ExpectedWork+1e-9 || best.E < 0.999*plan.ExpectedWork {
		t.Errorf("landscape best E %g vs plan %g", best.E, plan.ExpectedWork)
	}
}

func TestStopReasonStrings(t *testing.T) {
	for r, want := range map[StopReason]string{
		StopTail:         "tail-converged",
		StopExhausted:    "target-exhausted",
		StopUnproductive: "next-period-unproductive",
		StopFlat:         "derivative-flat",
		StopMaxPeriods:   "max-periods",
		StopReason(99):   "unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if !StopExhausted.Structural() || StopTail.Structural() || StopMaxPeriods.Structural() {
		t.Error("Structural classification wrong")
	}
}
