// Package trace covers the paper's provenance story for life functions:
// "knowledge ... garnered possibly from trace data that exposes B's
// owner's computer usage patterns", encapsulated "by some well-behaved
// curve". It provides synthetic owner-session generators with known
// ground truth, product-limit (Kaplan–Meier) survival estimation that
// tolerates right-censored observations, knot-thinned smoothing into a
// differentiable empirical life function, and fit-quality metrics.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/lifefn"
	"repro/internal/rng"
)

// ErrNoObservations reports an empty trace.
var ErrNoObservations = errors.New("trace: no observations")

// Observation is one recorded owner absence. Censored marks an absence
// still in progress when the trace was collected: its true duration is
// known only to exceed Duration.
type Observation struct {
	Duration float64
	Censored bool
}

// SampleAbsences draws n complete absence observations whose true
// survival function is the life function l, using inverse-transform
// sampling through lifefn.Draw.
func SampleAbsences(l lifefn.Life, n int, src *rng.Source) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{Duration: lifefn.Draw(l, src.Float64Open())}
	}
	return obs
}

// CensorAt right-censors every observation longer than cut: the trace
// collector stopped watching at that point. The returned slice is a
// modified copy.
func CensorAt(obs []Observation, cut float64) []Observation {
	out := make([]Observation, len(obs))
	for i, o := range obs {
		if o.Duration > cut {
			out[i] = Observation{Duration: cut, Censored: true}
		} else {
			out[i] = o
		}
	}
	return out
}

// ProductLimit computes the Kaplan–Meier estimate of the survival
// function from possibly-censored absence observations. It returns
// strictly increasing event times and the estimated survival just after
// each time; the curve starts implicitly at S(0) = 1.
func ProductLimit(obs []Observation) (times, surv []float64, err error) {
	if len(obs) == 0 {
		return nil, nil, ErrNoObservations
	}
	sorted := append([]Observation(nil), obs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Duration < sorted[j].Duration {
			return true
		}
		if sorted[j].Duration < sorted[i].Duration {
			return false
		}
		// Deaths before censorings at ties (standard convention).
		return !sorted[i].Censored && sorted[j].Censored
	})
	atRisk := len(sorted)
	s := 1.0
	i := 0
	for i < len(sorted) {
		t := sorted[i].Duration
		deaths, censored := 0, 0
		//lint:allow floatcmp tied event times group exactly (Kaplan-Meier convention)
		for i < len(sorted) && sorted[i].Duration == t {
			if sorted[i].Censored {
				censored++
			} else {
				deaths++
			}
			i++
		}
		if deaths > 0 {
			s *= 1 - float64(deaths)/float64(atRisk)
			times = append(times, t)
			surv = append(surv, s)
		}
		atRisk -= deaths + censored
	}
	if len(times) == 0 {
		return nil, nil, fmt.Errorf("trace: all %d observations censored", len(obs))
	}
	return times, surv, nil
}

// FitOptions tunes FitLife.
type FitOptions struct {
	// Knots is the number of interpolation knots the step estimate is
	// thinned to (the "well-behaved curve" encapsulation). If zero, 32.
	Knots int
}

// FitLife estimates a differentiable life function from a trace:
// product-limit survival estimate, thinned to quantile-spaced knots,
// interpolated monotonically (PCHIP) by lifefn.NewEmpirical. The result
// satisfies the paper's model assumptions by construction and can be
// handed directly to the planners.
func FitLife(obs []Observation, opt FitOptions) (*lifefn.Empirical, error) {
	knots := opt.Knots
	if knots <= 0 {
		knots = 32
	}
	times, surv, err := ProductLimit(obs)
	if err != nil {
		return nil, err
	}
	ts := []float64{0}
	ps := []float64{1}
	if len(times) <= knots {
		ts = append(ts, times...)
		ps = append(ps, surv...)
	} else {
		// Thin to about `knots` quantile-spaced event indices, always
		// keeping the final event.
		step := float64(len(times)-1) / float64(knots-1)
		prevIdx := -1
		for k := 0; k < knots; k++ {
			idx := int(math.Round(float64(k) * step))
			if idx <= prevIdx {
				continue
			}
			prevIdx = idx
			ts = append(ts, times[idx])
			ps = append(ps, surv[idx])
		}
	}
	// If the longest observation was censored, survival never reached
	// zero: leave the curve positive (NewEmpirical extends it with an
	// exponential tail). Otherwise survival hits zero at the largest
	// death, giving a bounded horizon.
	return lifefn.NewEmpirical(ts, ps)
}

// KSDistance returns the Kolmogorov–Smirnov-style distance
// max_t |a.P(t) - b.P(t)| over n+1 samples of [0, span].
func KSDistance(a, b lifefn.Life, span float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	worst := 0.0
	for i := 0; i <= n; i++ {
		t := span * float64(i) / float64(n)
		if d := math.Abs(a.P(t) - b.P(t)); d > worst {
			worst = d
		}
	}
	return worst
}
