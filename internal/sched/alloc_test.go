package sched

import (
	"testing"

	"repro/internal/lifefn"
)

// The //cs:hotpath root in this package is held to a zero-allocation
// steady state; this test pins that budget at runtime.

func allocLife(t *testing.T) lifefn.Life {
	t.Helper()
	l, err := lifefn.NewUniform(100)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func allocSchedule(t *testing.T, n int) Schedule {
	t.Helper()
	periods := make([]float64, n)
	for i := range periods {
		periods[i] = 2
	}
	s, err := New(periods...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExpectedWorkAllocFree: evaluating E(S; p) — the inner loop of
// every optimizer and of the Monte-Carlo validation — allocates
// nothing.
func TestExpectedWorkAllocFree(t *testing.T) {
	l := allocLife(t)
	s := allocSchedule(t, 32)
	var sink float64
	avg := testing.AllocsPerRun(100, func() {
		sink = ExpectedWork(s, l, 0.5)
	})
	_ = sink
	if avg != 0 {
		t.Fatalf("ExpectedWork allocates %.2f/run, want 0", avg)
	}
}
