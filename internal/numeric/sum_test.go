package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumCancellations(t *testing.T) {
	// 1 + 1e100 - 1e100 loses the 1 under naive summation order.
	var k KahanSum
	k.Add(1)
	k.Add(1e100)
	k.Add(-1e100)
	if got := k.Value(); got != 1 {
		t.Errorf("compensated sum = %g, want 1", got)
	}
}

func TestKahanSumManySmall(t *testing.T) {
	var k KahanSum
	n := 10_000_000
	for i := 0; i < n; i++ {
		k.Add(0.1)
	}
	want := float64(n) * 0.1
	if math.Abs(k.Value()-want) > 1e-4 {
		t.Errorf("sum = %.10f, want %.10f", k.Value(), want)
	}
}

func TestKahanSumPropertyMatchesExactIntegers(t *testing.T) {
	// Property: sums of small integers are exact.
	check := func(xs []int8) bool {
		var k KahanSum
		var exact int64
		for _, v := range xs {
			k.Add(float64(v))
			exact += int64(v)
		}
		//lint:allow floatcmp compensated sum of small ints is exact
		return k.Value() == float64(exact)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKahanSumZeroValueIsEmpty(t *testing.T) {
	var k KahanSum
	if got := k.Value(); got != 0 {
		t.Errorf("empty sum = %g, want 0", got)
	}
}

func TestKahanSumLargeTermFirst(t *testing.T) {
	// Plain Kahan loses the 1 when the large term comes first; the
	// Neumaier branch keeps it.
	var k KahanSum
	k.Add(1e100)
	k.Add(1)
	k.Add(-1e100)
	if got := k.Value(); got != 1 {
		t.Errorf("compensated sum = %g, want 1", got)
	}
}
