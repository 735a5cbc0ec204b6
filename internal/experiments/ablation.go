package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/numeric"
	"repro/internal/report"
)

// RunE16 ablates the planner's design choices on two contrasting
// scenarios: the t0 bracket (Theorems 3.2/3.3) versus a naive full-span
// search, the scan resolution inside the bracket, and the tail
// truncation threshold for infinite schedules. Quality is E relative to
// the reference configuration; cost is the number of P evaluations (the
// planner's dominant cost; counted, not timed, so the table is
// deterministic), on the same closed-form and once-per-plan paths the
// planner takes on the bare life.
// (The measured outcome is more interesting than the naive expectation:
// see the table notes.)
func RunE16() (*report.Table, error) {
	t := &report.Table{
		ID:      "E16",
		Title:   "Ablation: planner design choices (bracket, scan resolution, tail eps)",
		Columns: []string{"scenario", "variant", "t0", "E.ratio", "P.evals", "evals.ratio"},
	}
	u, err := lifefn.NewUniform(1000)
	if err != nil {
		return nil, err
	}
	gd, err := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/32))
	if err != nil {
		return nil, err
	}
	const c = 1.0
	for _, sc := range []namedLife{{"uniform(L=1000)", u}, {"geomdec(hl=32)", gd}} {
		ref, refEvals, err := planCounted(sc.life, c, core.PlanOptions{}, false)
		if err != nil {
			return nil, fmt.Errorf("E16 %s reference: %w", sc.name, err)
		}
		variants := []struct {
			name     string
			opt      core.PlanOptions
			fullSpan bool
		}{
			{"reference (bracket, scan=64)", core.PlanOptions{}, false},
			{"coarse scan=8", core.PlanOptions{ScanPoints: 8}, false},
			{"fine scan=256", core.PlanOptions{ScanPoints: 256}, false},
			{"no bracket (full-span scan=64)", core.PlanOptions{}, true},
			{"loose tail eps=1e-6", core.PlanOptions{TailEps: 1e-6}, false},
		}
		for _, v := range variants {
			plan, evals, err := planCounted(sc.life, c, v.opt, v.fullSpan)
			if err != nil {
				return nil, fmt.Errorf("E16 %s %s: %w", sc.name, v.name, err)
			}
			t.AddRow(sc.name, v.name, plan.T0,
				ratio(plan.ExpectedWork, ref.ExpectedWork),
				evals, ratio(float64(evals), float64(refEvals)))
		}
	}
	t.AddNote("the bounds themselves take about a seventh of the reference's P evaluations: both lives are log-concave, so Lemma 3.1's inner maximum is found once per plan, not once per probe, and each scan cell costs one P evaluation per period, since E(S;p) is summed in the pass that generates S. The bracketless scan still costs fewer: most of its cells sit at large t0, whose schedules have few periods, while every bracketed cell is a near-optimal schedule of many. The bracket's value is its guarantee (provable containment of the optimum; protection when E(t0) is singular/multimodal, cf. E8), not raw speed")
	t.AddNote("scan resolution and tail eps barely move E here: the t0 objective is flat near its maximum, which is itself a guideline selling point (Section 6's 'manageably narrow search space')")
	return t, nil
}

// planCounted plans with an instrumented life function; fullSpan
// replaces the guideline bracket by a naive search over (c, span] with
// the planner's own objective, ExpectedWorkFrom, and returns a plan
// without its schedule.
func planCounted(l lifefn.Life, c float64, opt core.PlanOptions, fullSpan bool) (core.Plan, int64, error) {
	var evals int64
	counted := lifefn.Counting{Life: l, Evals: &evals}
	pl, err := core.NewPlanner(counted, c, opt)
	if err != nil {
		return core.Plan{}, 0, err
	}
	if !fullSpan {
		plan, err := pl.PlanBest()
		return plan, evals, err
	}
	// Naive full-span search: same generator, no bracket.
	span := lifefn.Span(l, 1e-12)
	scan := opt.ScanPoints
	if scan <= 0 {
		scan = 64
	}
	objective := func(t0 float64) float64 {
		e, genErr := pl.ExpectedWorkFrom(t0)
		if genErr != nil {
			return math.Inf(-1)
		}
		return e
	}
	t0, _, err := numeric.MaximizeScan(objective, c*(1+1e-9), span, scan, numeric.MaxOptions{Tol: 1e-10})
	if err != nil {
		return core.Plan{}, evals, err
	}
	e, err := pl.ExpectedWorkFrom(t0)
	if err != nil {
		return core.Plan{}, evals, err
	}
	return core.Plan{T0: t0, ExpectedWork: e}, evals, nil
}
