package obs

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// hdrSamplers are the distribution shapes the paper's quantities span:
// bounded uniform busy periods, skewed lognormal latencies, and
// heavy-tailed pareto episode lengths where only the log-bucketed
// histogram keeps the tail resolved. Seeds are fixed: the test is a
// deterministic property check, not a statistical one.
var hdrSamplers = []struct {
	name   string
	seed   uint64
	sample func(r *rng.Source) float64
}{
	{"uniform", 11, func(r *rng.Source) float64 { return r.Uniform(0.5, 500) }},
	{"lognormal", 12, func(r *rng.Source) float64 { return r.LogNormal(1.0, 1.5) }},
	{"pareto", 13, func(r *rng.Source) float64 {
		// Inverse-transform Pareto(xm=1, alpha=1.5): heavy tail, finite
		// mean, infinite variance — the worst case for fixed buckets.
		return math.Pow(1-r.Float64Open(), -1/1.5)
	}},
}

// TestQuantileHistAccuracy: for every distribution and a grid of
// quantiles, the histogram's answer is within the advertised
// HDRRelativeError of the exact order statistic computed by sorting.
func TestQuantileHistAccuracy(t *testing.T) {
	const n = 20000
	grid := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for _, d := range hdrSamplers {
		t.Run(d.name, func(t *testing.T) {
			r := rng.New(d.seed)
			var h QuantileHist
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = d.sample(r)
				h.Observe(xs[i])
			}
			sort.Float64s(xs)
			for _, q := range grid {
				// Same rank convention as Quantile: ceil(q·n) clamped to [1, n].
				rank := int(math.Ceil(q * n))
				if rank < 1 {
					rank = 1
				}
				if rank > n {
					rank = n
				}
				exact := xs[rank-1]
				got := h.Quantile(q)
				if relErr := math.Abs(got-exact) / exact; relErr > HDRRelativeError {
					t.Errorf("q=%g: hist %g vs exact %g, relative error %.4f > %.4f",
						q, got, exact, relErr, HDRRelativeError)
				}
			}
			if got, want := h.Count(), uint64(n); got != want {
				t.Errorf("Count = %d, want %d", got, want)
			}
			if max := h.Max(); math.Abs(max-xs[n-1]) > 1e-12*xs[n-1] {
				t.Errorf("Max = %g, want %g", max, xs[n-1])
			}
		})
	}
}

// TestQuantileHistEdgeCases pins the non-positive and empty behavior the
// doc comments promise.
func TestQuantileHistEdgeCases(t *testing.T) {
	var h QuantileHist
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile is not NaN")
	}
	h.Observe(-3)
	h.Observe(0)
	h.Observe(math.NaN()) // dropped
	h.Observe(2)
	if got, want := h.Count(), uint64(3); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	// Ranks 1..2 are the zero bucket, rank 3 the positive observation.
	if got := h.Quantile(0.5); got > 0 {
		t.Errorf("median of {<=0, <=0, 2} = %g, want 0", got)
	}
	if got := h.Quantile(1); math.Abs(got-2)/2 > HDRRelativeError {
		t.Errorf("p100 = %g, want 2 within %.4f", got, HDRRelativeError)
	}
}
