package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between differently seeded streams", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	v1, v2 := r.Uint64(), r.Uint64()
	if v1 == 0 && v2 == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between parent and split child", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g outside [0, 1)", v)
		}
	}
}

func TestFloat64MeanAndVariance(t *testing.T) {
	r := New(11)
	n := 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("variance = %g, want ~1/12", variance)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	n := 200_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %g", variance)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(31)
	for i := 0; i < 10_000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) = %g", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(37)
	for i := 0; i < 10_000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal = %g", v)
		}
	}
}

func TestSplitReproducible(t *testing.T) {
	a, b := New(7).Split(), New(7).Split()
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("children of equally seeded parents diverged at draw %d", i)
		}
	}
}

func TestFloat64OpenInOpenInterval(t *testing.T) {
	r := New(5)
	for i := 0; i < 100_000; i++ {
		if v := r.Float64Open(); !(v > 0 && v < 1) {
			t.Fatalf("Float64Open = %g outside (0, 1)", v)
		}
	}
}

func TestUniformDegenerateInterval(t *testing.T) {
	r := New(13)
	for i := 0; i < 100; i++ {
		//lint:allow floatcmp lo + 0·u is lo exactly
		if v := r.Uniform(2.5, 2.5); v != 2.5 {
			t.Fatalf("Uniform(2.5, 2.5) = %g", v)
		}
	}
}

func TestLogNormalLogMoments(t *testing.T) {
	r := New(41)
	n := 200_000
	mu, sigma := 1.5, 0.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := math.Log(r.LogNormal(mu, sigma))
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-mu) > 0.01 {
		t.Errorf("log mean = %g, want %g", mean, mu)
	}
	if math.Abs(sd-sigma) > 0.01 {
		t.Errorf("log sd = %g, want %g", sd, sigma)
	}
}

func TestLogNormalPanicsOnNegativeSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LogNormal with sigma < 0 did not panic")
		}
	}()
	New(1).LogNormal(0, -1)
}
