package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lifefn"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current plans")

// goldenLives is the life-function half of the plan grid pinned by
// testdata/plans.golden: bounded and unbounded, concave, convex and
// unclassified shapes.
func goldenLives(t *testing.T) []lifefn.Life {
	t.Helper()
	var lives []lifefn.Life
	add := func(l lifefn.Life, err error) {
		if err != nil {
			t.Fatal(err)
		}
		lives = append(lives, l)
	}
	for _, hl := range []float64{8, 32, 100} {
		add(lifefn.NewGeomDecreasing(math.Pow(2, 1/hl)))
	}
	for _, d := range []float64{1.5, 2, 3} {
		add(lifefn.NewPowerLaw(d))
	}
	add(lifefn.NewWeibull(0.7, 50))
	add(lifefn.NewUniform(700))
	add(lifefn.NewPoly(3, 400))
	add(lifefn.NewGeomIncreasing(60))
	return lives
}

// TestGoldenPlans pins PlanBest at full precision — t0, E(S;p), the
// evaluation count and every period — on a grid of life functions and
// overheads, so that a change to the planner's numerics shows as a
// diff of testdata/plans.golden. Run with -update to rewrite the file.
func TestGoldenPlans(t *testing.T) {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var out strings.Builder
	for _, l := range goldenLives(t) {
		for _, c := range []float64{0.25, 0.5, 1, 2, 3, 3.9} {
			fmt.Fprintf(&out, "== %s c=%s\n", l, g(c))
			plan, err := mustPlanner(t, l, c).PlanBest()
			if err != nil {
				fmt.Fprintf(&out, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(&out, "t0=%s E=%s evaluations=%d\n", g(plan.T0), g(plan.ExpectedWork), plan.Evaluations)
			for _, p := range plan.Schedule.Periods() {
				out.WriteString(g(p) + "\n")
			}
		}
	}

	const path = "testdata/plans.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var gl, wl string
		if i < len(got) {
			gl = got[i]
		}
		if i < len(wantLines) {
			wl = wantLines[i]
		}
		if gl != wl {
			t.Fatalf("golden line %d differs:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
}
