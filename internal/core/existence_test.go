package core

import (
	"math"
	"testing"

	"repro/internal/lifefn"
)

func TestLiteralCor32WitnessExistsNearCForPowerLaw(t *testing.T) {
	// The literal Corollary 3.2 inequality p(t) > -(t-c)p'(t) reduces,
	// for p = (1+t)^{-d}, to 1+t > d(t-c), which holds on a nonempty
	// window just above c for every d. The literal scan must find it.
	for _, d := range []float64{0.5, 1, 1.5, 2, 3} {
		p, err := lifefn.NewPowerLaw(d)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := ExistsProductive(p, 1)
		if !ok {
			t.Errorf("d=%g: literal scan found no witness", d)
			continue
		}
		// Verify the witness actually satisfies the inequality.
		if m := p.P(w) + (w-1)*p.Deriv(w); m <= 0 {
			t.Errorf("d=%g: witness %g has margin %g", d, w, m)
		}
	}
}

func TestAdmitsOptimalPowerLawPaperClaim(t *testing.T) {
	// The paper: p(t) = 1/(1+t)^d with d > 1 does not admit an optimal
	// schedule. Our decision procedure must certify this via a material
	// append gain on the best system-(3.6) schedule.
	for _, d := range []float64{1.5, 2, 3} {
		p, err := lifefn.NewPowerLaw(d)
		if err != nil {
			t.Fatal(err)
		}
		ad, err := AdmitsOptimal(p, 1, PlanOptions{MaxPeriods: 2000})
		if err != nil {
			t.Fatalf("d=%g: %v", d, err)
		}
		if ad.Admits {
			t.Errorf("d=%g: decided admissible", d)
		}
	}
}

func TestTailMarginSeparatesFamilies(t *testing.T) {
	// Margin 1/h(t) - (t-c): for a^{-t} it fails in the tail (1/h is
	// constant) but the hazard is constant, so the exemption applies;
	// for (1+t)^{-d} with d > 1 both the tail failure and the fading
	// hazard hold.
	gd := mustGeomDec(math.Pow(2, 1.0/16))
	if !TailMarginFails(gd, 1) {
		t.Error("geomdec: tail margin should fail (1/h constant)")
	}
	if HazardDecreasing(gd, 1) {
		t.Error("geomdec: hazard should be constant, not decreasing")
	}
	pw, _ := lifefn.NewPowerLaw(2)
	if !TailMarginFails(pw, 1) {
		t.Error("powerlaw d=2: tail margin should fail")
	}
	if !HazardDecreasing(pw, 1) {
		t.Error("powerlaw: hazard should decrease")
	}
	pwLight, _ := lifefn.NewPowerLaw(0.5)
	if TailMarginFails(pwLight, 1) {
		t.Error("powerlaw d=0.5: tail margin should hold")
	}
	u := mustUniform(100)
	if TailMarginFails(u, 1) {
		t.Error("bounded horizon: tail test must not apply")
	}
}

func TestAdmitsOptimalStandardScenarios(t *testing.T) {
	for _, l := range []lifefn.Life{
		mustUniform(500), mustPoly(3, 500),
		mustGeomDec(math.Pow(2, 1.0/16)), mustGeomInc(48),
	} {
		ad, err := AdmitsOptimal(l, 1, PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if !ad.Admits {
			t.Errorf("%s: decided inadmissible (%s)", l, ad.Reason)
		}
	}
}

func TestAdmitsOptimalOverheadDominates(t *testing.T) {
	ad, err := AdmitsOptimal(mustUniform(5), 10, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ad.Admits {
		t.Error("admissible with c > L")
	}
}

func TestExistsProductiveStandardScenarios(t *testing.T) {
	for _, l := range []lifefn.Life{
		mustUniform(100), mustPoly(3, 100),
		mustGeomDec(math.Pow(2, 1.0/16)), mustGeomInc(32),
	} {
		if w, ok := ExistsProductive(l, 1); !ok {
			t.Errorf("%s: no witness found", l)
		} else if w <= 1 {
			t.Errorf("%s: witness %g <= c", l, w)
		}
	}
}

func TestExistsProductiveOverheadDominates(t *testing.T) {
	if _, ok := ExistsProductive(mustUniform(5), 10); ok {
		t.Error("witness found with c > L")
	}
}
