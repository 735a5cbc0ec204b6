package core

import (
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

// brentOnly hides l's closed-form inverse, so that lifefn.Inverse finds
// every period of system (3.6) with Brent's method.
func brentOnly(l lifefn.Life) lifefn.Life { return struct{ lifefn.Life }{l} }

// closedFormCases are the paper families at fixed (c, t0) points.
var closedFormCases = []struct {
	name string
	l    lifefn.Life
	c    float64
	t0   float64
}{
	{"uniform", mustUniform(1000), 1, 44},
	{"poly2", mustPoly(2, 800), 1, 90},
	{"poly4", mustPoly(4, 800), 2, 200},
	{"geomdec", mustGeomDec(math.Pow(2, 1.0/24)), 1, 8},
	{"geomdec-hl100", mustGeomDec(math.Pow(2, 1.0/100)), 0.25, 7.5},
	{"geominc", mustGeomInc(64), 1, 54},
	{"geominc-c3", mustGeomInc(60), 3, 50},
}

// TestGenerateClosedFormMatchesBrent compares system (3.6) solved with
// the closed-form p⁻¹ against the same recurrence solved with Brent, at
// a fixed t0. E must agree to 1e-12 relative; each period whose
// boundary still survives with probability >= 1e-6 must agree to 1e-6
// relative. Deeper in the tail the recurrence amplifies Brent's 1e-13
// root tolerance, so the two drift apart where their contribution to E
// no longer shows. TestClosedFormRecurrencesMatchGenericInversion holds
// the same cases to the Section-4 recurrences.
func TestGenerateClosedFormMatchesBrent(t *testing.T) {
	for _, cse := range closedFormCases {
		t.Run(cse.name, func(t *testing.T) {
			pl := mustPlanner(t, cse.l, cse.c)
			fast, err := pl.GenerateFrom(cse.t0)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := mustPlanner(t, brentOnly(cse.l), cse.c).GenerateFrom(cse.t0)
			if err != nil {
				t.Fatal(err)
			}
			ef, es := sched.ExpectedWork(fast, pl.life, pl.c), sched.ExpectedWork(slow, pl.life, pl.c)
			if d := math.Abs(ef-es) / es; d > 1e-12 {
				t.Errorf("E: closed form %.17g, Brent %.17g (relative %g)", ef, es, d)
			}
			boundary := 0.0
			for k, w := range slow.Periods() {
				boundary += w
				if cse.l.P(boundary) < 1e-6 {
					break
				}
				if d := math.Abs(fast.Period(k)-w) / w; d > 1e-6 {
					t.Errorf("period %d (p(T_k) = %g): closed form %.17g, Brent %.17g", k, cse.l.P(boundary), fast.Period(k), w)
				}
			}
		})
	}
}

// TestPlanBestClosedFormMatchesBrent runs the whole t0 search both ways:
// E must agree to 1e-12 and t0 to 1e-7, both relative.
func TestPlanBestClosedFormMatchesBrent(t *testing.T) {
	for _, cse := range closedFormCases {
		t.Run(cse.name, func(t *testing.T) {
			fast, err := mustPlanner(t, cse.l, cse.c).PlanBest()
			if err != nil {
				t.Fatal(err)
			}
			slow, err := mustPlanner(t, brentOnly(cse.l), cse.c).PlanBest()
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(fast.ExpectedWork-slow.ExpectedWork) / slow.ExpectedWork; d > 1e-12 {
				t.Errorf("E: closed form %.17g, Brent %.17g (relative %g)", fast.ExpectedWork, slow.ExpectedWork, d)
			}
			if d := math.Abs(fast.T0-slow.T0) / slow.T0; d > 1e-7 {
				t.Errorf("t0: closed form %.17g, Brent %.17g (relative %g)", fast.T0, slow.T0, d)
			}
		})
	}
}

// TestPlanBestAllocs bounds a whole plan's allocations for the four
// paper families, at the parameters of the plan/* benchmark rows: the
// scan generates into one buffer and the closed-form inverse allocates
// nothing.
func TestPlanBestAllocs(t *testing.T) {
	for _, l := range []lifefn.Life{mustUniform(1000), mustPoly(2, 1000), mustGeomDec(math.Pow(2, 1.0/32)), mustGeomInc(100)} {
		pl := mustPlanner(t, l, 1)
		got := testing.AllocsPerRun(20, func() {
			if _, err := pl.PlanBest(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per plan", l, got)
		if got > 10 {
			t.Errorf("%s: PlanBest allocates %.0f/run, want at most 10", l, got)
		}
	}
}
