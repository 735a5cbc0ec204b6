package lifefn

import (
	"math"
	"testing"
)

// TestCountingKeepsWrappedPaths checks that a Counting life inverts and
// reports log-concavity as the life it wraps does: the closed form
// makes no P call, Brent makes some, and LogConcave passes through.
func TestCountingKeepsWrappedPaths(t *testing.T) {
	u, err := NewUniform(1000)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := NewPowerLaw(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		life       Life
		closedForm bool
	}{
		{u, true},
		{struct{ Life }{u}, false},
		{pw, false},
	} {
		var evals int64
		counted := Counting{Life: tc.life, Evals: &evals}
		got, err := Inverse(counted, 0.5, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.life, err)
		}
		want, err := Inverse(tc.life, 0.5, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.life, err)
		}
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s: counted Inverse = %g, want %g", tc.life, got, want)
		}
		if tc.closedForm != (evals == 0) {
			t.Errorf("%s: Inverse made %d P calls; closed form %v", tc.life, evals, tc.closedForm)
		}
		if LogConcave(counted) != LogConcave(tc.life) {
			t.Errorf("%s: counted LogConcave = %v, wrapped %v", tc.life, LogConcave(counted), LogConcave(tc.life))
		}
		before := evals
		counted.P(1)
		if evals != before+1 {
			t.Errorf("%s: P made %d counts, want 1", tc.life, evals-before)
		}
	}
}
