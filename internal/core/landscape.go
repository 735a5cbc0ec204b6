package core

import (
	"math"
)

// LocalMax is one local maximum of the E(t0) landscape.
type LocalMax struct {
	T0 float64
	E  float64
}

// T0Landscape probes Section 6's uniqueness question ("Are optimal
// cycle-stealing schedules unique? ... Theorem 3.1 implies that
// distinct optimal schedules must have different initial
// period-lengths"): it samples ExpectedWorkFrom(t0) over the guideline
// bracket at n points and returns the interior local maxima in t0
// order. A single reported maximum supports uniqueness for the
// configuration; several materially-tied maxima would witness
// non-uniqueness.
//
// Maxima within relTol of each other in E are considered ties and all
// reported; strictly dominated local maxima (more than relTol below the
// best) are filtered out, since only global maximizers are optimal
// schedule candidates.
func (pl *Planner) T0Landscape(n int, relTol float64) ([]LocalMax, error) {
	if n < 8 {
		n = 8
	}
	if relTol <= 0 {
		relTol = 1e-6
	}
	br, err := pl.T0Bracket()
	if err != nil {
		return nil, err
	}
	es := make([]float64, n+1)
	ts := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t0 := br.Lo + (br.Hi-br.Lo)*float64(i)/float64(n)
		ts[i] = t0
		e, err := pl.ExpectedWorkFrom(t0)
		if err != nil {
			e = math.Inf(-1)
		}
		es[i] = e
	}
	var maxima []LocalMax
	best := math.Inf(-1)
	for i := 0; i <= n; i++ {
		left := math.Inf(-1)
		if i > 0 {
			left = es[i-1]
		}
		right := math.Inf(-1)
		if i < n {
			right = es[i+1]
		}
		if es[i] >= left && es[i] >= right && !math.IsInf(es[i], -1) {
			// Skip plateau duplicates: only the first sample of a flat
			// run counts.
			//lint:allow floatcmp plateau detection is deliberately exact
			if i > 0 && es[i] == es[i-1] {
				continue
			}
			maxima = append(maxima, LocalMax{T0: ts[i], E: es[i]})
			if es[i] > best {
				best = es[i]
			}
		}
	}
	// Keep only maxima within relTol of the global best.
	out := maxima[:0]
	for _, m := range maxima {
		if m.E >= best*(1-relTol) {
			out = append(out, m)
		}
	}
	return out, nil
}
