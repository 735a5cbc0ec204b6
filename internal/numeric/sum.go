package numeric

// KahanSum accumulates float64 values with Kahan–Babuška (Neumaier)
// compensation, so that long expected-work summations and Monte-Carlo
// averages do not drift. The zero value is an empty sum ready to use.
type KahanSum struct {
	sum float64
	c   float64 // running compensation
}

// Add accumulates v into the sum.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if abs(k.sum) >= abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Value returns the compensated total.
func (k *KahanSum) Value() float64 { return k.sum + k.c }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
