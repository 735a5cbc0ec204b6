package optimal

import (
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

func TestUniformOptimalStructure(t *testing.T) {
	l, _ := lifefn.NewUniform(1000)
	r, err := Uniform(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule
	if s.Len() == 0 {
		t.Fatal("empty optimal schedule")
	}
	// Arithmetic structure t_k = t_0 - kc exhausting L exactly.
	for k := 1; k < s.Len(); k++ {
		if math.Abs(s.Period(k)-(s.Period(k-1)-1)) > 1e-9 {
			t.Fatalf("period %d not arithmetic", k)
		}
	}
	// The optimum may deliberately leave a sliver of the lifespan
	// unused (the paper's Section 2 remark), but never overruns it and
	// uses almost all of it.
	if s.Total() > 1000+1e-9 || s.Total() < 950 {
		t.Errorf("total = %g, want ≈ 1000 without overrun", s.Total())
	}
	// t0 near sqrt(2cL).
	if math.Abs(r.T0-math.Sqrt(2000)) > 2 {
		t.Errorf("t0 = %g, want ≈ %g", r.T0, math.Sqrt(2000))
	}
	// Period count matches the floor variant of Corollary 5.3.
	floorBound := int(math.Floor(math.Sqrt(2*1000/1.0+0.25) + 0.5))
	if d := s.Len() - floorBound; d < -1 || d > 0 {
		t.Errorf("m = %d, want ≈ %d", s.Len(), floorBound)
	}
}

func TestUniformOptimalBeatsNeighbours(t *testing.T) {
	// The chosen m must beat m-1 and m+1 period arithmetic schedules.
	l, _ := lifefn.NewUniform(500)
	c := 2.0
	r, err := Uniform(l, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{r.Schedule.Len() - 1, r.Schedule.Len() + 1} {
		if m < 1 {
			continue
		}
		t0 := 500/float64(m) + float64(m-1)*c/2
		periods := make([]float64, 0, m)
		ok := true
		for k := 0; k < m; k++ {
			p := t0 - float64(k)*c
			if p <= 0 {
				ok = false
				break
			}
			periods = append(periods, p)
		}
		if !ok {
			continue
		}
		s, err := sched.New(periods...)
		if err != nil {
			continue
		}
		if e := sched.ExpectedWork(s, l, c); e > r.ExpectedWork+1e-9 {
			t.Errorf("m=%d beats chosen m=%d: %g > %g", m, r.Schedule.Len(), e, r.ExpectedWork)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	l, _ := lifefn.NewUniform(0.5)
	r, err := Uniform(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schedule.Len() != 0 || r.ExpectedWork != 0 {
		t.Errorf("expected empty schedule for L < c, got %v", r.Schedule)
	}
	if _, err := Uniform(l, 0); err == nil {
		t.Error("c=0 accepted")
	}
}

func TestGeomDecreasingPeriodEquation(t *testing.T) {
	// The period must satisfy t + a^{-t}/ln a = c + 1/ln a exactly.
	for _, a := range []float64{math.Pow(2, 1.0/8), math.Pow(2, 1.0/32), 1.5} {
		l, _ := lifefn.NewGeomDecreasing(a)
		c := 1.0
		tStar, err := GeomDecreasingPeriod(l, c)
		if err != nil {
			t.Fatal(err)
		}
		lna := math.Log(a)
		res := tStar + math.Exp(-tStar*lna)/lna - c - 1/lna
		if math.Abs(res) > 1e-9 {
			t.Errorf("a=%g: residual %g", a, res)
		}
		if tStar <= c {
			t.Errorf("a=%g: t* = %g <= c", a, tStar)
		}
		// Inside the paper's Section 4.2 bounds.
		lo := math.Sqrt(c*c/4+c/lna) + c/2
		hi := c + 1/lna
		if tStar < lo-1e-9 || tStar > hi+1e-9 {
			t.Errorf("a=%g: t* = %g outside [%g, %g]", a, tStar, lo, hi)
		}
	}
}

func TestGeomDecreasingScheduleAndClosedForm(t *testing.T) {
	a := math.Pow(2, 1.0/16)
	l, _ := lifefn.NewGeomDecreasing(a)
	c := 1.0
	r, err := GeomDecreasing(l, c, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schedule.Len() < 10 {
		t.Fatalf("schedule too short: %d", r.Schedule.Len())
	}
	// All periods equal (to 1e-12 relative).
	t0 := r.Schedule.Period(0)
	for k := 1; k < r.Schedule.Len(); k++ {
		if math.Abs(r.Schedule.Period(k)-t0) > 1e-12*t0 {
			t.Fatalf("period %d = %.17g, want %.17g", k, r.Schedule.Period(k), t0)
		}
	}
	// Truncated sum matches the closed form.
	exact := ExpectedWorkGeomDecreasing(l, c, t0)
	if math.Abs(r.ExpectedWork-exact) > 1e-6*exact {
		t.Errorf("E = %.12g, closed form %.12g", r.ExpectedWork, exact)
	}
}

func TestGeomDecreasingEqualPeriodIsBestAmongEqualPeriods(t *testing.T) {
	// t* must maximize the closed-form E over equal-period schedules.
	a := math.Pow(2, 1.0/16)
	l, _ := lifefn.NewGeomDecreasing(a)
	c := 1.0
	tStar, err := GeomDecreasingPeriod(l, c)
	if err != nil {
		t.Fatal(err)
	}
	eStar := ExpectedWorkGeomDecreasing(l, c, tStar)
	for _, dt := range []float64{-1, -0.1, -0.01, 0.01, 0.1, 1} {
		if e := ExpectedWorkGeomDecreasing(l, c, tStar+dt); e > eStar+1e-12 {
			t.Errorf("t*+%g beats t*: %g > %g", dt, e, eStar)
		}
	}
}

func TestGeomIncreasingRecurrence(t *testing.T) {
	l, _ := lifefn.NewGeomIncreasing(64)
	c := 1.0
	r, err := GeomIncreasing(l, c)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule
	if s.Len() < 2 {
		t.Fatalf("schedule too short: %d", s.Len())
	}
	for k := 1; k < s.Len(); k++ {
		want := math.Log2(s.Period(k-1) - c + 2)
		if math.Abs(s.Period(k)-want) > 1e-9 {
			t.Fatalf("t_%d = %g, recurrence wants %g", k, s.Period(k), want)
		}
	}
	if s.Total() > 64+1e-9 {
		t.Errorf("schedule overruns lifespan: %g", s.Total())
	}
	if !(r.ExpectedWork > 0) {
		t.Error("no expected work")
	}
}

func TestGeomIncreasingDegenerate(t *testing.T) {
	l, _ := lifefn.NewGeomIncreasing(0.5)
	r, err := GeomIncreasing(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schedule.Len() != 0 {
		t.Error("expected empty schedule for L < c")
	}
}

func TestGroundTruthMatchesUniformClosedForm(t *testing.T) {
	l, _ := lifefn.NewUniform(200)
	c := 2.0
	closed, err := Uniform(l, c)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := GroundTruth(l, c, GroundTruthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gt.ExpectedWork < closed.ExpectedWork*(1-1e-3) {
		t.Errorf("ground truth E = %g below closed-form optimal %g", gt.ExpectedWork, closed.ExpectedWork)
	}
	if gt.ExpectedWork > closed.ExpectedWork*(1+1e-3) {
		t.Errorf("ground truth E = %g exceeds provably optimal %g — optimizer or closed form broken", gt.ExpectedWork, closed.ExpectedWork)
	}
}

func TestGroundTruthMatchesGeomIncreasing(t *testing.T) {
	l, _ := lifefn.NewGeomIncreasing(32)
	c := 1.0
	closed, err := GeomIncreasing(l, c)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := GroundTruth(l, c, GroundTruthOptions{Polish: true})
	if err != nil {
		t.Fatal(err)
	}
	// [BCLR97]'s doubling-risk recurrence comes from *unit* (discrete)
	// perturbations, so in the continuous model the ground truth may
	// legitimately edge past it by a fraction of a percent — but never
	// fall below it, and the two must agree in shape.
	if gt.ExpectedWork < closed.ExpectedWork*(1-1e-3) {
		t.Errorf("ground truth E = %g below [BCLR97] schedule %g", gt.ExpectedWork, closed.ExpectedWork)
	}
	if gt.ExpectedWork > closed.ExpectedWork*1.02 {
		t.Errorf("ground truth E = %g implausibly above [BCLR97] %g", gt.ExpectedWork, closed.ExpectedWork)
	}
}

func TestGroundTruthDegenerate(t *testing.T) {
	l, _ := lifefn.NewUniform(0.5)
	r, err := GroundTruth(l, 1, GroundTruthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Schedule.Len() != 0 {
		t.Error("expected empty result for L < c")
	}
	if _, err := GroundTruth(l, -1, GroundTruthOptions{}); err == nil {
		t.Error("negative c accepted")
	}
}
