package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lifefn"
)

// lemma31Lives is the differential grid for the Lemma 3.1 bound: the
// four paper families at several sizes, conditionals of each at
// several survival times, and the singular (power-law, E8) and
// multimodal (mixture, E14) lives.
func lemma31Lives(t *testing.T) []lifefn.Life {
	t.Helper()
	var lives []lifefn.Life
	add := func(l lifefn.Life, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		lives = append(lives, l)
	}
	var families []lifefn.Life
	for _, L := range []float64{10, 100, 1000, 1e4} {
		families = append(families, mustUniform(L), mustGeomInc(L/10))
	}
	for _, d := range []int{2, 3, 5} {
		for _, L := range []float64{100, 1000} {
			families = append(families, mustPoly(d, L))
		}
	}
	for _, hl := range []float64{2, 8, 32, 128} {
		families = append(families, mustGeomDec(math.Pow(2, 1/hl)))
	}
	lives = append(lives, families...)
	for _, base := range families {
		span := lifefn.Span(base, 1e-12)
		for _, frac := range []float64{0.1, 0.4} {
			add(lifefn.NewConditional(base, frac*span))
		}
	}
	for _, d := range []float64{1.5, 2, 3} {
		add(lifefn.NewPowerLaw(d))
	}
	coffee, meeting := mustUniform(30), mustUniform(300)
	add(lifefn.NewMixture([]lifefn.Life{coffee, meeting}, []float64{7, 3}))
	add(lifefn.NewMixture([]lifefn.Life{mustGeomDec(math.Pow(2, 1.0/40)), meeting}, []float64{1, 1}))
	add(lifefn.NewMixture([]lifefn.Life{mustPoly(3, 200), coffee}, []float64{6, 4}))
	return lives
}

// lemma31Overheads are the overheads the differential grid sweeps.
var lemma31Overheads = []float64{0.1, 0.5, 1, 3, 3.9, 8}

// relDiff is |a-b| relative to |b|, or absolute when b is zero.
func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// checkLemma31 holds the once-per-plan Lemma 3.1 inner maximum to the
// per-probe one on l at overhead c: Lemma31Upper within 1e-10
// relative, and the plan searched in each bracket to E within 1e-12
// relative and t0 within 1e-7 relative. T0Bracket must take the
// per-probe path wherever lifefn.LogConcave does not hold.
func checkLemma31(t *testing.T, l lifefn.Life, c float64) {
	t.Helper()
	pl, err := NewPlanner(l, c, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pl.t0Bracket(false)
	if err != nil {
		return // span <= c: no bracket on either path
	}
	hoisted, err := pl.t0Bracket(true)
	if err != nil {
		t.Fatalf("%s c=%g: once-per-plan bracket: %v", l, c, err)
	}
	got, want := hoisted.Detail.Lemma31Upper, ref.Detail.Lemma31Upper
	if d := relDiff(got, want); d > 1e-10 {
		t.Errorf("%s c=%g: Lemma31Upper = %.17g, per-probe %.17g (rel %.3g)", l, c, got, want, d)
	}
	if !lifefn.LogConcave(l) {
		br, err := pl.T0Bracket()
		if err != nil || math.Float64bits(br.Detail.Lemma31Upper) != math.Float64bits(want) {
			t.Errorf("%s c=%g: T0Bracket Lemma31Upper = %.17g, %v; want the per-probe %.17g", l, c, br.Detail.Lemma31Upper, err, want)
		}
	}
	refPlan, refErr := pl.searchBracket(ref)
	plan, err := pl.searchBracket(hoisted)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%s c=%g: plan error %v, per-probe %v", l, c, err, refErr)
	}
	if err != nil {
		return
	}
	if d := relDiff(plan.ExpectedWork, refPlan.ExpectedWork); d > 1e-12 {
		t.Errorf("%s c=%g: E = %.17g, per-probe %.17g (rel %.3g)", l, c, plan.ExpectedWork, refPlan.ExpectedWork, d)
	}
	if d := relDiff(plan.T0, refPlan.T0); d > 1e-7 {
		t.Errorf("%s c=%g: t0 = %.17g, per-probe %.17g (rel %.3g)", l, c, plan.T0, refPlan.T0, d)
	}
}

// TestLemma31OncePerPlanMatchesPerProbe runs checkLemma31 over the
// grid. The power-law and mixture lives are not log-concave, so their
// plans keep the per-probe scan; the once-per-plan path is checked on
// them too, as evidence of how far its guard is from binding.
func TestLemma31OncePerPlanMatchesPerProbe(t *testing.T) {
	for _, l := range lemma31Lives(t) {
		for _, c := range lemma31Overheads {
			t.Run(fmt.Sprintf("%s/c=%g", l, c), func(t *testing.T) { checkLemma31(t, l, c) })
		}
	}
}

// unitFrac maps any float to [0, 1), or reports false for NaN and ±Inf.
func unitFrac(x float64) (float64, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, false
	}
	return math.Mod(math.Abs(x), 1), true
}

// FuzzLemma31Upper draws one of the four paper families with its
// parameters, optionally conditioned on survival to part of its span,
// and an overhead c, and holds the once-per-plan Lemma 3.1 bound and
// its plan to the per-probe ones within checkLemma31's bounds.
func FuzzLemma31Upper(f *testing.F) {
	f.Add(uint8(0), 0.75, uint8(1), 0.5, 0.0)
	f.Add(uint8(1), 0.9, uint8(3), 0.1, 0.3)
	f.Add(uint8(2), 0.5, uint8(0), 0.9, 0.0)
	f.Add(uint8(3), 0.4, uint8(0), 0.6, 0.5)
	f.Add(uint8(6), 0.6, uint8(0), 0.3, 0.7)
	f.Fuzz(func(t *testing.T, family uint8, scale float64, d uint8, overhead, tauFrac float64) {
		s, okS := unitFrac(scale)
		o, okO := unitFrac(overhead)
		tf, okT := unitFrac(tauFrac)
		if !okS || !okO || !okT {
			return
		}
		// Lifespans and half-lives from 1 to 10^4 and overheads from
		// 0.01 to 10, log-uniformly.
		size := math.Pow(10, 4*s)
		c := math.Pow(10, 3*o-2)
		var l lifefn.Life
		var err error
		switch family % 4 {
		case 0:
			l, err = lifefn.NewUniform(size)
		case 1:
			l, err = lifefn.NewPoly(1+int(d%8), size)
		case 2:
			l, err = lifefn.NewGeomDecreasing(math.Pow(2, 1/size))
		default:
			l, err = lifefn.NewGeomIncreasing(size)
		}
		if err != nil {
			return
		}
		if family&4 != 0 {
			if l, err = lifefn.NewConditional(l, tf*lifefn.Span(l, 1e-6)); err != nil {
				return
			}
		}
		checkLemma31(t, l, c)
	})
}
