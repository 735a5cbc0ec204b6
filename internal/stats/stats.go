// Package stats provides the summary statistics the Monte-Carlo
// experiments report: streaming mean/variance, confidence intervals,
// Student-t quantiles and the chi-square goodness-of-fit test.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates a sample one observation at a time using
// Welford's algorithm, which is numerically stable over the millions of
// episode replications the simulator produces. The zero value is an
// empty accumulator ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest observation (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 when empty).
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance (0 with < 2 points).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// CI returns the half-width of the confidence interval on the mean at
// the given confidence level (e.g. 0.95), using the Student-t quantile
// for the sample's degrees of freedom.
func (r *Running) CI(level float64) float64 {
	if r.n < 2 {
		return math.Inf(1)
	}
	return TQuantile(1-(1-level)/2, int(r.n-1)) * r.StdErr()
}

// Summary is a frozen view of a sample.
type Summary struct {
	N      int64
	Mean   float64
	StdDev float64
	StdErr float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize freezes the accumulator into a Summary.
func Summarize(r *Running) Summary {
	return Summary{
		N:      r.N(),
		Mean:   r.Mean(),
		StdDev: r.StdDev(),
		StdErr: r.StdErr(),
		Min:    r.Min(),
		Max:    r.Max(),
		CI95:   r.CI(0.95),
	}
}

// String renders the summary as "mean ± ci95 (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.3g (n=%d)", s.Mean, s.CI95, s.N)
}

// TQuantile returns the p-quantile of the Student-t distribution with
// df degrees of freedom, computed by bisection on the regularized
// incomplete beta CDF. For df > 1000 the normal quantile is used.
func TQuantile(p float64, df int) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: t quantile p=%g outside (0,1)", p))
	}
	if df >= 1000 {
		return normalQuantile(p)
	}
	cdf := func(t float64) float64 { return tCDF(t, float64(df)) }
	lo, hi := -1e3, 1e3
	for i := 0; i < 200 && hi-lo > 1e-10*(1+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// tCDF is the Student-t CDF via the regularized incomplete beta function.
func tCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	ib := regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// regIncBeta computes the regularized incomplete beta I_x(a, b) with the
// continued-fraction expansion (Lentz's algorithm).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lbeta) / a
	if x > (a+1)/(a+b+2) {
		// Use the symmetry relation for faster convergence.
		return 1 - regIncBeta(b, a, 1-x)
	}
	const eps = 1e-15
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 300; i++ {
		m := i / 2
		var num float64
		switch {
		case i == 0:
			num = 1
		case i%2 == 0:
			num = float64(m) * (b - float64(m)) * x / ((a + float64(2*m) - 1) * (a + float64(2*m)))
		default:
			num = -(a + float64(m)) * (a + b + float64(m)) * x / ((a + float64(2*m)) * (a + float64(2*m) + 1))
		}
		d = 1 + num*d
		if math.Abs(d) < 1e-30 {
			d = 1e-30
		}
		d = 1 / d
		c = 1 + num/c
		if math.Abs(c) < 1e-30 {
			c = 1e-30
		}
		f *= c * d
		if math.Abs(1-c*d) < eps {
			break
		}
	}
	return front * (f - 1)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// normalQuantile is the standard normal quantile (Acklam's rational
// approximation, |relative error| < 1.15e-9).
func normalQuantile(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		return -normalQuantile(1 - p)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
