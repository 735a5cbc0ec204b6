package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
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

func TestRunningMergeMatchesSequential(t *testing.T) {
	var whole, a, b Running
	for i := 0; i < 100; i++ {
		v := math.Sin(float64(i)) * float64(i)
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged n = %d", a.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
		t.Errorf("merged mean %g vs %g", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9*whole.Variance() {
		t.Errorf("merged variance %g vs %g", a.Variance(), whole.Variance())
	}
	//lint:allow floatcmp min/max merge is exact selection, no arithmetic
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Error("merged min/max wrong")
	}
}

func TestRunningMergeEmptyCases(t *testing.T) {
	var a, b Running
	b.Add(5)
	a.Merge(b) // empty receiver
	if a.N() != 1 || a.Mean() != 5 {
		t.Error("merge into empty failed")
	}
	var c Running
	a.Merge(c) // empty argument
	if a.N() != 1 {
		t.Error("merge of empty changed receiver")
	}
}

func TestRunningPropertyMergeAssociative(t *testing.T) {
	check := func(xs, ys []float64) bool {
		for _, v := range append(append([]float64{}, xs...), ys...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		var seq, a, b Running
		for _, v := range xs {
			seq.Add(v)
			a.Add(v)
		}
		for _, v := range ys {
			seq.Add(v)
			b.Add(v)
		}
		a.Merge(b)
		if a.N() != seq.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		scale := 1 + math.Abs(seq.Mean())
		return math.Abs(a.Mean()-seq.Mean()) <= 1e-9*scale
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 3 {
		t.Errorf("median = %g, want 3", q)
	}
	if xs[0] != 3 {
		t.Error("Quantile mutated input")
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 5 {
		t.Errorf("extremes = %g, %g", q0, q1)
	}
	qm, _ := Quantile(xs, 0.25)
	if qm != 2 {
		t.Errorf("q25 = %g, want 2", qm)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrNoData) {
		t.Error("empty input accepted")
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("q > 1 accepted")
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
