package stats

import (
	"math"
	"testing"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Errorf("n = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g, want 5", r.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %g, want %g", r.Variance(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %g/%g", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 {
		t.Error("empty accumulator not zero")
	}
	r.Add(3)
	if r.Variance() != 0 {
		t.Error("single-point variance not zero")
	}
	if !math.IsInf(r.CI(0.95), 1) {
		t.Error("single-point CI should be infinite")
	}
}

func TestSummaryString(t *testing.T) {
	var r Running
	for i := 0; i < 100; i++ {
		r.Add(float64(i))
	}
	s := Summarize(&r)
	if s.N != 100 || s.Mean != 49.5 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Classical t-table values.
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.975, 1, 12.706},
		{0.975, 10, 2.228},
		{0.975, 30, 2.042},
		{0.95, 10, 1.812},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("t(%g, %d) = %.4f, want %.3f", c.p, c.df, got, c.want)
		}
	}
}

func TestTQuantileLargeDFMatchesNormal(t *testing.T) {
	got := TQuantile(0.975, 100000)
	if math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("t(0.975, inf) = %g, want 1.96", got)
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	hi := TQuantile(0.9, 7)
	lo := TQuantile(0.1, 7)
	if math.Abs(hi+lo) > 1e-6 {
		t.Errorf("asymmetric quantiles: %g vs %g", hi, lo)
	}
}

func TestCIShrinksWithN(t *testing.T) {
	var small, large Running
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 3))
	}
	if large.CI(0.95) >= small.CI(0.95) {
		t.Errorf("CI did not shrink: %g vs %g", large.CI(0.95), small.CI(0.95))
	}
}

func TestRunningLargeOffset(t *testing.T) {
	// Welford's update keeps the variance of a sample far from zero,
	// where the one-pass sum-of-squares formula cancels catastrophically.
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(1e9 + v)
	}
	if math.Abs(r.Mean()-(1e9+5)) > 1e-6 {
		t.Errorf("mean = %.6f, want %.6f", r.Mean(), 1e9+5)
	}
	if math.Abs(r.Variance()-32.0/7) > 1e-6 {
		t.Errorf("variance = %g, want %g", r.Variance(), 32.0/7)
	}
}
