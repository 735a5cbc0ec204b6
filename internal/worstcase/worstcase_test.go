package worstcase

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

func TestGuaranteedWorkHandComputed(t *testing.T) {
	s := sched.MustNew(10, 8, 6, 4)
	c := 1.0
	// Productive times: 9, 7, 5, 3 (total 24).
	cases := []struct {
		q    int
		want float64
	}{
		{0, 24}, {1, 15}, {2, 8}, {3, 3}, {4, 0}, {10, 0},
	}
	for _, cse := range cases {
		if got := GuaranteedWork(s, c, cse.q); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("q=%d: G = %g, want %g", cse.q, got, cse.want)
		}
	}
	if got := GuaranteedWork(s, c, -1); got != 24 {
		t.Errorf("negative q treated as %g", got)
	}
}

func TestOptimalMatchesClosedForm(t *testing.T) {
	for _, cse := range []struct {
		l, c float64
		q    int
	}{
		{1000, 1, 1}, {1000, 1, 4}, {1000, 2, 9}, {10000, 5, 2},
	} {
		res, err := Optimal(cse.l, cse.c, cse.q)
		if err != nil {
			t.Fatal(err)
		}
		cf := ClosedFormGuarantee(cse.l, cse.c, cse.q)
		if res.Guaranteed < cf-0.02*cf {
			t.Errorf("L=%g c=%g q=%d: G=%g below closed form %g", cse.l, cse.c, cse.q, res.Guaranteed, cf)
		}
		// The integer optimum can beat the continuous approximation
		// only by rounding slack.
		if res.Guaranteed > cf+math.Sqrt(cse.c*cse.l) {
			t.Errorf("L=%g c=%g q=%d: G=%g implausibly above closed form %g", cse.l, cse.c, cse.q, res.Guaranteed, cf)
		}
		// All periods equal and the lifespan exhausted.
		if math.Abs(res.Schedule.Total()-cse.l) > 1e-6 {
			t.Errorf("total = %g, want %g", res.Schedule.Total(), cse.l)
		}
	}
}

func TestOptimalQZeroIsOnePeriod(t *testing.T) {
	// With no adversary the whole lifespan in one period is optimal.
	res, err := Optimal(100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Periods != 1 || math.Abs(res.Guaranteed-99) > 1e-9 {
		t.Errorf("q=0: m=%d G=%g, want 1/99", res.Periods, res.Guaranteed)
	}
}

func TestOptimalDegenerate(t *testing.T) {
	res, err := Optimal(10, 1, 50) // adversary budget beyond any feasible m
	if err != nil {
		t.Fatal(err)
	}
	if res.Guaranteed != 0 || res.Schedule.Len() != 0 {
		t.Errorf("expected empty result, got %+v", res)
	}
	if _, err := Optimal(-1, 1, 1); err == nil {
		t.Error("negative L accepted")
	}
	if _, err := Optimal(10, 1, -1); err == nil {
		t.Error("negative q accepted")
	}
}

func TestPropertyEqualPeriodsBeatUnequal(t *testing.T) {
	// Property: for the same m and total duration, the equal-period
	// schedule's guaranteed work is at least any unequal split's (the
	// equalization argument behind Optimal).
	check := func(raw []uint8, qi uint8) bool {
		if len(raw) < 2 || len(raw) > 8 {
			return true
		}
		c := 1.0
		q := int(qi % uint8(len(raw)))
		periods := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			periods[i] = c + 0.1 + float64(r)/16
			total += periods[i]
		}
		unequal, err := sched.New(periods...)
		if err != nil {
			return true
		}
		equal := make([]float64, len(raw))
		for i := range equal {
			equal[i] = total / float64(len(raw))
		}
		eq, err := sched.New(equal...)
		if err != nil {
			return true
		}
		return GuaranteedWork(eq, c, q) >= GuaranteedWork(unequal, c, q)-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestWorstCaseVsExpectedTradeoff(t *testing.T) {
	// The robustness tension the sequel studies: the worst-case-optimal
	// schedule sacrifices expected work, and the expected-work-optimal
	// schedule sacrifices guarantees. Both directions must be strict.
	l, c, q := 1000.0, 1.0, 3
	wc, err := Optimal(l, c, q)
	if err != nil {
		t.Fatal(err)
	}
	// Expected-optimal under uniform risk (arithmetic schedule).
	arith := make([]float64, 0, 44)
	t0 := 44.7
	for tt := t0; tt > c; tt -= c {
		if sum(arith)+tt > l {
			break
		}
		arith = append(arith, tt)
	}
	expectedOpt := sched.MustNew(arith...)
	if g := GuaranteedWork(expectedOpt, c, q); g >= wc.Guaranteed {
		t.Errorf("expected-optimal schedule guarantee %g >= worst-case optimum %g", g, wc.Guaranteed)
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
