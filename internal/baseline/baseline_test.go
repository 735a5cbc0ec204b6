package baseline

import (
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

func uniform(t *testing.T, l float64) lifefn.Life {
	t.Helper()
	u, err := lifefn.NewUniform(l)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestAllAtOnce(t *testing.T) {
	l := uniform(t, 100)
	s, err := AllAtOnce(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || math.Abs(s.Period(0)-100) > 1e-9 {
		t.Errorf("schedule = %v", s)
	}
	// Under uniform risk, all-at-once commits nothing in expectation.
	if e := sched.ExpectedWork(s, l, 1); e != 0 {
		t.Errorf("E = %g, want 0 (p(L) = 0)", e)
	}
}

func TestAllAtOnceFailsOnShortSpan(t *testing.T) {
	if _, err := AllAtOnce(uniform(t, 0.5), 1); err == nil {
		t.Error("span < c accepted")
	}
}

func TestFixedChunk(t *testing.T) {
	l := uniform(t, 100)
	s, err := FixedChunk(l, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 14 chunks of 7 = 98, remainder 2 > c kept.
	if s.Len() != 15 {
		t.Fatalf("len = %d", s.Len())
	}
	if math.Abs(s.Total()-100) > 1e-9 {
		t.Errorf("total = %g", s.Total())
	}
	if _, err := FixedChunk(l, 1, 0); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestBestFixedChunkBeatsArbitraryChunks(t *testing.T) {
	l := uniform(t, 1000)
	c := 1.0
	best, err := BestFixedChunk(l, c)
	if err != nil {
		t.Fatal(err)
	}
	eBest := sched.ExpectedWork(best, l, c)
	for _, chunk := range []float64{2, 5, 10, 50, 200, 999} {
		s, err := FixedChunk(l, c, chunk)
		if err != nil {
			continue
		}
		if e := sched.ExpectedWork(s, l, c); e > eBest+1e-6 {
			t.Errorf("chunk %g beats BestFixedChunk: %g > %g", chunk, e, eBest)
		}
	}
}

func TestGreedyUniform(t *testing.T) {
	// Greedy first period for p_{1,L} maximizes (t-c)(1-t/L): t = (L+c)/2.
	l := uniform(t, 100)
	s, err := Greedy(l, 1, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Period(0)-50.5) > 1e-3 {
		t.Errorf("greedy t0 = %g, want 50.5", s.Period(0))
	}
	// Greedy is suboptimal for uniform risk (Section 6): its E must be
	// below the optimal ~E of the arithmetic schedule.
	e := sched.ExpectedWork(s, l, 1)
	if !(e > 0) {
		t.Fatal("greedy accomplished nothing")
	}
}

func TestGreedyGeomDecreasingMatchesOptimal(t *testing.T) {
	// Section 6: greedy IS optimal for the geometrically decreasing
	// lifespan scenario. Its first period must maximize (t-c)a^{-t},
	// i.e. t = c + 1/ln a, and all periods must be equal.
	a := math.Pow(2, 1.0/16)
	g, err := lifefn.NewGeomDecreasing(a)
	if err != nil {
		t.Fatal(err)
	}
	c := 1.0
	s, err := Greedy(g, c, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := c + 1/math.Log(a)
	if math.Abs(s.Period(0)-want) > 1e-3 {
		t.Errorf("greedy t0 = %g, want %g", s.Period(0), want)
	}
	for k := 1; k < s.Len()-1; k++ {
		if math.Abs(s.Period(k)-s.Period(0)) > 1e-3 {
			t.Fatalf("greedy periods not equal at %d: %g vs %g", k, s.Period(k), s.Period(0))
		}
	}
}

func TestGreedyFailsWhenNothingProductive(t *testing.T) {
	if _, err := Greedy(uniform(t, 0.5), 1, GreedyOptions{}); err == nil {
		t.Error("greedy succeeded with L < c")
	}
}

func TestDoubling(t *testing.T) {
	l := uniform(t, 1000)
	s, err := Doubling(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Geometric ramp 2, 4, 8, ... plus a remainder.
	for k := 1; k < s.Len()-1; k++ {
		if math.Abs(s.Period(k)-2*s.Period(k-1)) > 1e-9 {
			t.Fatalf("period %d = %g, want double of %g", k, s.Period(k), s.Period(k-1))
		}
	}
	if s.Total() > 1000+1e-9 {
		t.Errorf("total = %g overruns span", s.Total())
	}
	if _, err := Doubling(uniform(t, 1.5), 1); err == nil {
		t.Error("doubling on tiny span accepted")
	}
}

func TestBaselinesAreNormalized(t *testing.T) {
	l := uniform(t, 500)
	c := 3.0
	build := []func() (sched.Schedule, error){
		func() (sched.Schedule, error) { return AllAtOnce(l, c) },
		func() (sched.Schedule, error) { return FixedChunk(l, c, 11) },
		func() (sched.Schedule, error) { return BestFixedChunk(l, c) },
		func() (sched.Schedule, error) { return Greedy(l, c, GreedyOptions{}) },
		func() (sched.Schedule, error) { return Doubling(l, c) },
	}
	for i, b := range build {
		s, err := b()
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		for k := 0; k < s.Len(); k++ {
			if s.Period(k) <= c {
				t.Errorf("builder %d: period %d = %g <= c", i, k, s.Period(k))
			}
		}
	}
}
