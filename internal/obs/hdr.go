package obs

import (
	"math"
	"sync/atomic"
)

// QuantileHist is a lock-free log-bucketed histogram (HDR-style) with a
// fixed relative error, for the tail statistics fixed-bucket histograms
// cannot resolve: period lengths, per-episode committed work, bundle
// latencies and idle times all span orders of magnitude, and the
// interesting effects live at p99 and beyond.
//
// Positive values are bucketed by their binary exponent plus the top
// hdrSubBits mantissa bits: every octave [2^e, 2^(e+1)) splits into
// hdrSubCount linear sub-buckets, so a bucket's width is at most
// 1/hdrSubCount of its lower bound and the mid-bucket representative
// returned by Quantile is within RelativeError (= 1/(2·hdrSubCount)) of
// any value in the bucket. Exponents are clamped to [hdrMinExp,
// hdrMaxExp]; values at or below zero land in a dedicated zero bucket
// whose representative is 0.
//
// Observe is two atomic adds plus a CAS loop for the running sum and
// max — no locks, safe under concurrent writers, and safe to read from
// another goroutine while writers record. A quiescent histogram yields
// deterministic quantiles.
type QuantileHist struct {
	counts [hdrBuckets]atomic.Uint64
	zero   atomic.Uint64
	n      atomic.Uint64
	sum    Gauge
	max    atomic.Uint64 // float64 bits; valid only when n > 0
}

const (
	hdrSubBits  = 5
	hdrSubCount = 1 << hdrSubBits // 32 sub-buckets per octave
	hdrMinExp   = -64             // smallest distinguished value: 2^-64
	hdrMaxExp   = 64              // everything >= 2^64 shares the top octave
	hdrBuckets  = (hdrMaxExp - hdrMinExp + 1) * hdrSubCount
)

// hdrIndex maps a positive value to its bucket index.
func hdrIndex(v float64) int {
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	if exp < hdrMinExp {
		return 0
	}
	if exp > hdrMaxExp {
		return hdrBuckets - 1
	}
	sub := int(bits >> (52 - hdrSubBits) & (hdrSubCount - 1))
	return (exp-hdrMinExp)*hdrSubCount + sub
}

// hdrValue returns the representative (mid-bucket) value of bucket i.
func hdrValue(i int) float64 {
	exp := hdrMinExp + i/hdrSubCount
	sub := i % hdrSubCount
	return math.Ldexp(1+(float64(sub)+0.5)/hdrSubCount, exp)
}

// Observe records one value. NaN observations are dropped; values at or
// below zero count in the zero bucket.
func (h *QuantileHist) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v <= 0 {
		h.zero.Add(1)
		v = 0
	} else {
		h.counts[hdrIndex(v)].Add(1)
	}
	h.n.Add(1)
	h.sum.Add(v)
	// v is >= 0 here, so the zero initial bits are a valid floor.
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *QuantileHist) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observations (negatives counted as 0).
func (h *QuantileHist) Sum() float64 { return h.sum.Value() }

// Max returns the largest observation, or 0 when empty.
func (h *QuantileHist) Max() float64 {
	if h.n.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns the q-quantile (q in [0, 1]) as the representative
// value of the bucket holding the ceil(q·n)-th smallest observation,
// within a relative error of 1/(2·hdrSubCount) (half of one sub-bucket's
// width over its lower bound) of the exact order statistic. It returns
// NaN on an empty histogram and clamps q outside [0, 1].
func (h *QuantileHist) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	cum := h.zero.Load()
	if rank <= cum {
		return 0
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if rank <= cum {
			return hdrValue(i)
		}
	}
	// Concurrent writers can race n ahead of the bucket counts; the
	// largest seen value is the right answer for the top rank.
	return h.Max()
}

// standardQuantiles are the exposed summary quantiles.
var standardQuantiles = []float64{0.5, 0.9, 0.99, 0.999}
