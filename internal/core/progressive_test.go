package core

import (
	"math"
	"testing"
)

func TestProgressiveUniformTracksStaticPlan(t *testing.T) {
	// Against the exact uniform life function, progressive re-planning
	// should reproduce (approximately) the static guideline plan: the
	// first period matches, and subsequent conditional re-plans shrink
	// the way the static schedule's periods do.
	l := mustUniform(1000)
	pr, err := NewProgressive(l, 1, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pl := mustPlanner(t, l, 1)
	static, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	var periods []float64
	for i := 0; i < 6; i++ {
		p, ok, err := pr.NextPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		periods = append(periods, p)
	}
	if len(periods) < 6 {
		t.Fatalf("progressive stopped after %d periods", len(periods))
	}
	if math.Abs(periods[0]-static.T0)/static.T0 > 0.02 {
		t.Errorf("progressive t0 = %g, static %g", periods[0], static.T0)
	}
	// Conditioning a uniform-risk function leaves a uniform-risk
	// function with shorter lifespan, so successive periods must be
	// strictly decreasing, echoing Corollary 5.1.
	for i := 1; i < len(periods); i++ {
		if periods[i] >= periods[i-1] {
			t.Errorf("progressive periods not decreasing: %v", periods)
		}
	}
}

func TestProgressiveGeomDecMemoryless(t *testing.T) {
	// The memoryless life function re-plans to the same period forever.
	l := mustGeomDec(math.Pow(2, 1.0/16))
	pr, err := NewProgressive(l, 1, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p1, ok, err := pr.NextPeriod()
	if err != nil || !ok {
		t.Fatalf("first period: %v %v", ok, err)
	}
	p2, ok, err := pr.NextPeriod()
	if err != nil || !ok {
		t.Fatalf("second period: %v %v", ok, err)
	}
	if math.Abs(p1-p2)/p1 > 1e-3 {
		t.Errorf("memoryless re-plan changed period: %g -> %g", p1, p2)
	}
}

func TestProgressiveStopsAtHorizon(t *testing.T) {
	l := mustUniform(10)
	pr, err := NewProgressive(l, 1, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	steps := 0
	for {
		p, ok, err := pr.NextPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		total += p
		steps++
		if steps > 100 {
			t.Fatal("progressive never stopped")
		}
	}
	if total > 10 {
		t.Errorf("progressive overran the horizon: %g", total)
	}
	if steps == 0 {
		t.Error("progressive produced no periods")
	}
}

func TestProgressiveReset(t *testing.T) {
	l := mustUniform(100)
	pr, err := NewProgressive(l, 1, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := pr.NextPeriod()
	if err != nil {
		t.Fatal(err)
	}
	pr.Reset()
	p2, _, err := pr.NextPeriod()
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow floatcmp replay determinism: bit-identical
	if p1 != p2 {
		t.Errorf("replay after reset differs: %g vs %g", p1, p2)
	}
}

func TestProgressiveRejectsBadOverhead(t *testing.T) {
	if _, err := NewProgressive(mustUniform(10), 0, PlanOptions{}); err == nil {
		t.Error("c=0 accepted")
	}
}
