package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/report"
)

// RunE5 checks the Section 5 structural laws on guideline schedules for
// every scenario: the Theorem 5.2 growth rates, Corollary 5.1 strict
// decrease (concave), the Corollary 5.2 and 5.3 period-count bounds and
// the Corollary 5.4 t0 bound.
func RunE5() (*report.Table, error) {
	t := &report.Table{
		ID:      "E5",
		Title:   "Structural laws (Thm 5.2, Cors 5.1-5.4) on guideline schedules",
		Columns: []string{"scenario", "shape", "m", "bound.cor53", "bound.cor52", "growthLaw", "strictDecrease", "t0", "bound.cor54"},
	}
	scenarios, err := scenarioSet()
	if err != nil {
		return nil, err
	}
	for _, sc := range scenarios {
		c := 1.0
		plan, err := guidelinePlan(sc.life, c)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", sc.name, err)
		}
		shape := sc.life.Shape()
		growth := "ok"
		if err := core.CheckGrowthRate(plan.Schedule, shape, c, 1e-6); err != nil {
			growth = "VIOLATED"
		}
		decrease := "n/a"
		if shape.IsConcave() {
			decrease = "ok"
			if err := core.CheckStrictlyDecreasing(plan.Schedule, 1e-9); err != nil {
				decrease = "VIOLATED"
			}
		}
		cor53 := "n/a"
		cor54 := "n/a"
		horizon := sc.life.Horizon()
		if shape.IsConcave() && !math.IsInf(horizon, 1) {
			cor53 = fmt.Sprintf("%d", core.MaxPeriodsConcave(horizon, c))
			cor54 = fmt.Sprintf("%.6g", core.T0LowerFromPeriods(horizon, c, plan.Schedule.Len()))
		}
		t.AddRow(sc.name, shape.String(), plan.Schedule.Len(), cor53,
			core.MaxPeriodsFromT0(plan.T0, c), growth, decrease, plan.T0, cor54)
	}
	t.AddNote("for concave scenarios m must stay below bound.cor53 and t0 at or above bound.cor54; the uniform scenario attains both")
	return t, nil
}

// RunE6 validates equation (2.1): the Monte-Carlo mean committed work of
// the episode simulator must match the analytic E(S; p) within
// confidence intervals, for every scenario.
func RunE6() (*report.Table, error) {
	t := &report.Table{
		ID:      "E6",
		Title:   "Monte-Carlo validation of E(S;p) (100k episodes per scenario)",
		Columns: []string{"scenario", "E.analytic", "E.montecarlo", "ci95", "z", "chi2.p", "reclaimedFrac"},
	}
	scenarios, err := scenarioSet()
	if err != nil {
		return nil, err
	}
	const episodes = 100_000
	c := 1.0
	for i, sc := range scenarios {
		plan, err := guidelinePlan(sc.life, c)
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", sc.name, err)
		}
		analytic, mc, z := nowsim.ValidateExpectedWork(plan.Schedule, sc.life, c, episodes, 1000+uint64(i))
		_, chiP, err := nowsim.ValidateDistribution(plan.Schedule, sc.life, c, episodes, 5000+uint64(i), 10)
		if err != nil {
			return nil, fmt.Errorf("E6 chi-square %s: %w", sc.name, err)
		}
		// The context never ends, so there is no error to report.
		res, _ := nowsim.MonteCarloCtx(context.Background(), nowsim.NewSchedulePolicy(plan.Schedule, sc.name),
			nowsim.LifeOwner{Life: sc.life}, c, 10_000, 77+uint64(i), nowsim.Obs{})
		t.AddRow(sc.name, analytic, mc.Mean, mc.CI95, z, chiP,
			float64(res.Reclaimed)/float64(res.Episodes))
	}
	t.AddNote("z is the standardized difference between simulation and theory; |z| < 4 on 100k episodes validates the mean identity")
	t.AddNote("chi2.p tests the FULL distribution of committed-period counts against sched.CommitProbabilities — a non-vanishing p-value validates the simulator beyond the mean")
	return t, nil
}

// RunE11 exercises Theorem 5.1: guideline schedules for concave life
// functions must beat every sampled delta-perturbation.
func RunE11() (*report.Table, error) {
	t := &report.Table{
		ID:      "E11",
		Title:   "Local optimality: guideline schedules vs [k,±δ]-perturbations",
		Columns: []string{"scenario", "pairs", "deltasTried", "violations", "worstGain"},
	}
	scenarios, err := scenarioSet()
	if err != nil {
		return nil, err
	}
	deltas := []float64{1e-3, 1e-2, 0.1, 0.5, 1, 2}
	for _, sc := range scenarios {
		if !sc.life.Shape().IsConcave() {
			continue // Theorem 5.1 is proved for concave life functions
		}
		plan, err := guidelinePlan(sc.life, 1)
		if err != nil {
			return nil, fmt.Errorf("E11 %s: %w", sc.name, err)
		}
		viol := core.CheckLocalOptimality(plan.Schedule, sc.life, 1, deltas, 1e-9)
		worst := 0.0
		for _, v := range viol {
			if v.Gain > worst {
				worst = v.Gain
			}
		}
		t.AddRow(sc.name, plan.Schedule.Len()-1, len(deltas)*2, len(viol), worst)
	}
	t.AddNote("0 violations = no perturbation of any adjacent period pair improves expected work (Theorem 5.1)")
	return t, nil
}

// RunE8 runs the existence experiment on the power-law family,
// reporting both the literal Corollary 3.2 scan and the tail reading
// under which the paper's d > 1 conclusion follows, plus the
// best-effort guideline expected work (the sup the family approaches).
func RunE8() (*report.Table, error) {
	t := &report.Table{
		ID:      "E8",
		Title:   "Existence test on p(t)=(1+t)^{-d} (Cor 3.2)",
		Columns: []string{"d", "literalWitness", "tailMarginFails", "hazardFades", "admitsOptimal", "E.bestEffort"},
	}
	for _, d := range []float64{0.5, 1, 1.5, 2, 3} {
		p, err := lifefn.NewPowerLaw(d)
		if err != nil {
			return nil, err
		}
		c := 1.0
		_, literal := core.ExistsProductive(p, c)
		tail := core.TailMarginFails(p, c)
		fades := core.HazardDecreasing(p, c)
		ad, err := core.AdmitsOptimal(p, c, core.PlanOptions{MaxPeriods: 4000})
		if err != nil {
			return nil, fmt.Errorf("E8 d=%g: %w", d, err)
		}
		t.AddRow(d, literal, tail, fades, ad.Admits, ad.BestPlan.ExpectedWork)
	}
	t.AddNote("the literal Cor 3.2 inequality holds near c for every d (1+t > d(t-c) just above c); the paper's 'd>1 admits no optimal schedule' follows under the tail reading — see DESIGN.md")
	t.AddNote("E.bestEffort for inadmissible d is the supremum the system-(3.6) family approaches at its singular t0")
	return t, nil
}
