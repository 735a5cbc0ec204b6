package nowsim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifefn"
)

func specLife(t *testing.T) lifefn.Life {
	t.Helper()
	l, err := lifefn.NewUniform(200)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestParsePolicySpecs(t *testing.T) {
	l := specLife(t)
	cases := []struct {
		spec     string
		wantPlan bool
	}{
		{"guideline", true},
		{"progressive", false},
		{"fixed:25", false},
		{" fixed:25 ", false}, // whitespace-tolerant
		{"allatonce", false},
	}
	for _, tc := range cases {
		ps, err := ParsePolicy(tc.spec, l, 1, core.PlanOptions{})
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.spec, err)
			continue
		}
		if ps.Name != strings.TrimSpace(tc.spec) {
			t.Errorf("ParsePolicy(%q).Name = %q", tc.spec, ps.Name)
		}
		if (ps.Plan != nil) != tc.wantPlan {
			t.Errorf("ParsePolicy(%q).Plan != nil is %v, want %v", tc.spec, ps.Plan != nil, tc.wantPlan)
		}
		if ps.Factory == nil {
			t.Errorf("ParsePolicy(%q).Factory is nil", tc.spec)
			continue
		}
		// Factories must yield fresh instances: per-worker policies carry
		// per-episode cursor state.
		if ps.Factory() == ps.Factory() {
			t.Errorf("ParsePolicy(%q).Factory returns a shared instance", tc.spec)
		}
	}
}

func TestParsePolicyErrors(t *testing.T) {
	l := specLife(t)
	for _, spec := range []string{"", "unknown", "fixed:", "fixed:0", "fixed:-3", "fixed:abc"} {
		if _, err := ParsePolicy(spec, l, 1, core.PlanOptions{}); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", spec)
		}
	}
}

// TestParsePolicyGuidelineMatchesPlanner pins that the shared parser
// produces the same guideline schedule as calling the planner directly,
// so CLIs switching to ParsePolicy see no behavior change.
func TestParsePolicyGuidelineMatchesPlanner(t *testing.T) {
	l := specLife(t)
	ps, err := ParsePolicy("guideline", l, 1, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlanner(l, 1, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow floatcmp shared parser must produce the identical plan
	if ps.Plan.T0 != want.T0 || ps.Plan.ExpectedWork != want.ExpectedWork {
		t.Errorf("shared parser plan (t0=%g, E=%g) differs from direct plan (t0=%g, E=%g)",
			ps.Plan.T0, ps.Plan.ExpectedWork, want.T0, want.ExpectedWork)
	}
}

func TestParseDist(t *testing.T) {
	for name, want := range map[string]DurationDist{
		"uniform":   DistUniform,
		"lognormal": DistLogNormal,
		"bimodal":   DistBimodal,
		"pareto":    DistParetoCapped,
	} {
		got, err := ParseDist(name)
		if err != nil || got != want {
			t.Errorf("ParseDist(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseDist("cauchy"); err == nil {
		t.Error("ParseDist(cauchy) succeeded, want error")
	}
}

func TestBuildLife(t *testing.T) {
	for _, name := range []string{"uniform", "poly", "geomdec", "geominc"} {
		l, err := BuildLife(name, 100, 32, 2)
		if err != nil || l == nil {
			t.Errorf("BuildLife(%q): %v", name, err)
		}
	}
	if _, err := BuildLife("weibull", 100, 32, 2); err == nil {
		t.Error("BuildLife(weibull) succeeded, want error")
	}
	if _, err := BuildLife("geomdec", 100, 0, 2); err == nil {
		t.Error("BuildLife(geomdec, halfLife=0) succeeded, want error")
	}
}
