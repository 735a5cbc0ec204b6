package sched

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lifefn"
)

func TestNewRejectsBadPeriods(t *testing.T) {
	for _, bad := range [][]float64{{0}, {-1}, {1, math.Inf(1)}, {math.NaN()}} {
		if _, err := New(bad...); !errors.Is(err, ErrInvalidSchedule) {
			t.Errorf("New(%v): err = %v, want ErrInvalidSchedule", bad, err)
		}
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []float64{3, 2, 1}
	s, err := New(in...)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if s.Period(0) != 3 {
		t.Error("schedule aliases caller's slice")
	}
}

func TestBoundaries(t *testing.T) {
	s := MustNew(5, 3, 2)
	want := []float64{5, 8, 10}
	got := s.Boundaries()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("T_%d = %g, want %g", i, got[i], want[i])
		}
	}
	if math.Abs(s.Total()-10) > 1e-12 {
		t.Errorf("total = %g, want 10", s.Total())
	}
	if math.Abs(s.Boundary(1)-8) > 1e-12 {
		t.Errorf("Boundary(1) = %g, want 8", s.Boundary(1))
	}
}

func TestPositiveSub(t *testing.T) {
	if PositiveSub(5, 3) != 2 || PositiveSub(3, 5) != 0 || PositiveSub(4, 4) != 0 {
		t.Error("PositiveSub wrong")
	}
}

func TestTimeForInvertsPositiveSub(t *testing.T) {
	for _, tc := range []struct{ w, c float64 }{{2, 1}, {5, 0}, {0.25, 3.5}, {1e-9, 1e3}} {
		period := TimeFor(tc.w, tc.c)
		got := PositiveSub(period, tc.c)
		// Exact in real arithmetic; in floats the round trip loses at
		// most an ulp of the larger magnitude.
		if math.Abs(got-tc.w) > 1e-12*(tc.w+tc.c) {
			t.Errorf("PositiveSub(TimeFor(%g, %g), %g) = %g, want %g", tc.w, tc.c, tc.c, got, tc.w)
		}
	}
}

// TestCommitProbabilitiesClampNoisyLife pins the clamp-before-store in
// CommitProbabilities: a numerically noisy life function can report
// p(T_k) > p(T_{k-1}), and the per-period mass must still come out a
// probability, never a small negative.
func TestCommitProbabilitiesClampNoisyLife(t *testing.T) {
	noisy := lifefn.Func{
		PFunc: func(x float64) float64 {
			if x <= 0 {
				return 1
			}
			if x >= 10 {
				return 0
			}
			// Non-monotone ripple on a linear decay.
			return 1 - x/10 + 0.01*math.Sin(40*x)
		},
		DerivFunc: func(x float64) float64 {
			if x < 0 || x > 10 {
				return 0
			}
			return -1.0/10 + 0.4*math.Cos(40*x)
		},
		Lifespan: 10,
	}
	s := MustNew(0.05, 0.05, 0.05, 0.05, 0.1, 0.1, 0.2, 0.4)
	probs := CommitProbabilities(s, noisy)
	if len(probs) != s.Len()+1 {
		t.Fatalf("len(probs) = %d, want %d", len(probs), s.Len()+1)
	}
	for k, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("probs[%d] = %g, escapes [0, 1]", k, p)
		}
	}
}

func TestExpectedWorkHandComputed(t *testing.T) {
	// Uniform L=10, c=1, S = (4, 3):
	// E = (4-1)·p(4) + (3-1)·p(7) = 3·0.6 + 2·0.3 = 2.4.
	l, _ := lifefn.NewUniform(10)
	s := MustNew(4, 3)
	if got := ExpectedWork(s, l, 1); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("E = %g, want 2.4", got)
	}
}

func TestExpectedWorkUsesPositiveSubtraction(t *testing.T) {
	// A period shorter than c contributes zero, not negative, work.
	l, _ := lifefn.NewUniform(10)
	s := MustNew(0.5, 4)
	// E = 0 + (4-1)·p(4.5) = 3·0.55.
	if got := ExpectedWork(s, l, 1); math.Abs(got-3*0.55) > 1e-12 {
		t.Errorf("E = %g, want %g", got, 3*0.55)
	}
}

func TestExpectedWorkEmptySchedule(t *testing.T) {
	l, _ := lifefn.NewUniform(10)
	if got := ExpectedWork(Schedule{}, l, 1); got != 0 {
		t.Errorf("E(empty) = %g", got)
	}
}

func TestExpectedWorkPanicsOnNegativeC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on negative c")
		}
	}()
	l, _ := lifefn.NewUniform(10)
	ExpectedWork(MustNew(1), l, -1)
}

func TestRealizedWorkBoundaryCases(t *testing.T) {
	s := MustNew(4, 3, 2)
	c := 1.0
	// Reclaim before first period completes: nothing.
	if got := RealizedWork(s, c, 4); got != 0 {
		t.Errorf("reclaim at exactly T_0: work = %g, want 0 (period lost)", got)
	}
	if got := RealizedWork(s, c, 4.0001); got != 3 {
		t.Errorf("reclaim just after T_0: work = %g, want 3", got)
	}
	if got := RealizedWork(s, c, 100); got != 3+2+1 {
		t.Errorf("never reclaimed: work = %g, want 6", got)
	}
	if got := RealizedWork(s, c, 0); got != 0 {
		t.Errorf("instant reclaim: work = %g, want 0", got)
	}
}

func TestRealizedWorkMatchesExpectedWorkInMean(t *testing.T) {
	// Deterministic check of the identity E[W(R)] = E(S; p) for the
	// uniform distribution by direct integration over reclaim times.
	l, _ := lifefn.NewUniform(10)
	s := MustNew(4, 3, 2)
	c := 1.0
	// R ~ Uniform(0, 10); E[W] = (1/10)·∫ W(r) dr. W is a step function
	// with steps at T_i: W = 0 on [0,4], 3 on (4,7], 5 on (7,9], 6 on (9,10].
	want := (3*3 + 5*2 + 6*1) / 10.0
	if got := ExpectedWork(s, l, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("E = %g, want %g", got, want)
	}
}

func TestNormalizeMergesUnproductivePeriods(t *testing.T) {
	c := 1.0
	s := MustNew(0.5, 0.3, 4, 0.9, 3, 0.2)
	n := Normalize(s, c)
	// 0.5+0.3 carried into 4 → 4.8; 0.9 carried into 3 → 3.9; trailing
	// 0.2 dropped.
	want := MustNew(4.8, 3.9)
	if !n.Equal(want, 1e-12) {
		t.Errorf("normalized = %v, want %v", n, want)
	}
}

func TestNormalizeNeverDecreasesExpectedWork(t *testing.T) {
	l, _ := lifefn.NewUniform(20)
	c := 1.0
	cases := []Schedule{
		MustNew(0.5, 5, 0.5, 5),
		MustNew(1, 1, 1, 1, 1),
		MustNew(10, 0.2),
		MustNew(0.9),
	}
	for _, s := range cases {
		n := Normalize(s, c)
		if ExpectedWork(n, l, c) < ExpectedWork(s, l, c)-1e-12 {
			t.Errorf("Normalize lowered E for %v", s)
		}
		for i := 0; i < n.Len(); i++ {
			if n.Period(i) <= c {
				t.Errorf("normalized period %d = %g <= c", i, n.Period(i))
			}
		}
	}
}

func TestNormalizePropertyProposition21(t *testing.T) {
	// Property (Proposition 2.1): for random schedules and the uniform
	// life function, the normal form never loses expected work and all
	// its periods exceed c.
	l, _ := lifefn.NewUniform(50)
	c := 1.0
	check := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		periods := make([]float64, len(raw))
		for i, r := range raw {
			periods[i] = 0.05 + float64(r)/32 // spans (0.05, 8]
		}
		s, err := New(periods...)
		if err != nil {
			return false
		}
		n := Normalize(s, c)
		if ExpectedWork(n, l, c) < ExpectedWork(s, l, c)-1e-9 {
			return false
		}
		for i := 0; i < n.Len(); i++ {
			if n.Period(i) <= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestShift(t *testing.T) {
	s := MustNew(4, 3)
	up, err := s.Shift(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Equal(MustNew(4.5, 3), 1e-12) {
		t.Errorf("shift up = %v", up)
	}
	down, err := s.Shift(1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !down.Equal(MustNew(4, 2), 1e-12) {
		t.Errorf("shift down = %v", down)
	}
	if _, err := s.Shift(1, -3); err == nil {
		t.Error("shift emptying a period accepted")
	}
	if _, err := s.Shift(5, 1); err == nil {
		t.Error("out-of-range shift accepted")
	}
}

func TestPerturbPreservesOtherBoundaries(t *testing.T) {
	s := MustNew(4, 3, 2)
	p, err := s.Perturb(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(MustNew(4.5, 2.5, 2), 1e-12) {
		t.Errorf("perturbed = %v", p)
	}
	if math.Abs(p.Total()-s.Total()) > 1e-12 {
		t.Error("perturbation changed total duration")
	}
	if math.Abs(p.Boundary(1)-s.Boundary(1)) > 1e-12 {
		t.Error("perturbation moved T_1")
	}
	if _, err := s.Perturb(2, 0.1); err == nil {
		t.Error("perturbing last period accepted")
	}
	if _, err := s.Perturb(0, 3); err == nil {
		t.Error("perturbation emptying successor accepted")
	}
}

func TestMergeFirstAndSplitFirstAreInverse(t *testing.T) {
	s := MustNew(4, 3, 2)
	m, err := s.MergeFirst()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(MustNew(7, 2), 1e-12) {
		t.Errorf("merged = %v", m)
	}
	back, err := m.SplitFirst(4)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s, 1e-12) {
		t.Errorf("split = %v, want %v", back, s)
	}
}

func TestMergeSplitErrors(t *testing.T) {
	if _, err := MustNew(4).MergeFirst(); err == nil {
		t.Error("MergeFirst on 1-period schedule accepted")
	}
	if _, err := (Schedule{}).SplitFirst(1); err == nil {
		t.Error("SplitFirst on empty schedule accepted")
	}
	if _, err := MustNew(4).SplitFirst(4); err == nil {
		t.Error("SplitFirst at period end accepted")
	}
}

func TestPrefixAppend(t *testing.T) {
	s := MustNew(4, 3, 2)
	if got := s.Prefix(2); !got.Equal(MustNew(4, 3), 1e-12) {
		t.Errorf("Prefix(2) = %v", got)
	}
	if got := s.Prefix(10); got.Len() != 3 {
		t.Errorf("Prefix(10).Len() = %d", got.Len())
	}
	if got := s.Prefix(-1); got.Len() != 0 {
		t.Errorf("Prefix(-1).Len() = %d", got.Len())
	}
	ap, err := s.Append(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Len() != 4 || ap.Period(3) != 1.5 {
		t.Errorf("Append = %v", ap)
	}
	if _, err := s.Append(-1); err == nil {
		t.Error("Append(-1) accepted")
	}
}

func TestStringFormat(t *testing.T) {
	s := MustNew(4, 3)
	str := s.String()
	if !strings.Contains(str, "4") || !strings.Contains(str, "total=7") {
		t.Errorf("String() = %q", str)
	}
}

func TestPropertyShiftDownNeverBeatsOptimalStructure(t *testing.T) {
	// Sanity property used throughout Section 3's proofs: shrinking the
	// final period of a schedule under uniform risk changes E by exactly
	// the work lost in that period (boundary effects only at T_last).
	l, _ := lifefn.NewUniform(100)
	c := 1.0
	s := MustNew(10, 8, 6)
	base := ExpectedWork(s, l, c)
	shifted, _ := s.Shift(2, -1)
	delta := base - ExpectedWork(shifted, l, c)
	// E difference = (6-1)p(24) - (5-1)p(23) = 5·0.76 - 4·0.77.
	want := 5*0.76 - 4*0.77
	if math.Abs(delta-want) > 1e-12 {
		t.Errorf("delta = %g, want %g", delta, want)
	}
}

func TestAdoptNormalizesInPlace(t *testing.T) {
	periods := []float64{0.5, 3, 0.25, 4, 0.75}
	s, err := Adopt(periods, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Normalize(MustNew(0.5, 3, 0.25, 4, 0.75), 1)
	if !s.Equal(want, 0) {
		t.Fatalf("Adopt = %v, want %v", s, want)
	}
	// The schedule lives in the adopted array: no copy was made.
	periods[0] = 99
	if s.Period(0) != 99 {
		t.Errorf("Adopt copied its slice")
	}
	for _, bad := range [][]float64{{1, 0}, {math.NaN()}, {math.Inf(1)}, {-2}} {
		_, errNew := New(bad...)
		_, errAdopt := Adopt(append([]float64(nil), bad...), 1)
		if !errors.Is(errAdopt, ErrInvalidSchedule) || errAdopt.Error() != errNew.Error() {
			t.Errorf("Adopt(%v) error %v, New's %v", bad, errAdopt, errNew)
		}
	}
}
