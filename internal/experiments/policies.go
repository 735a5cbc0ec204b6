package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/faultsim"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// RunE7 sweeps the relative overhead c/L across the three scenarios and
// reports each policy's expected work normalized to the optimal
// schedule's: who wins, by what factor, and where the chunking policies
// cross over.
func RunE7() (*report.Table, error) {
	t := &report.Table{
		ID:      "E7",
		Title:   "Policy sweep: E normalized to optimal, by relative overhead",
		Columns: []string{"scenario", "c/L", "guideline", "greedy", "bestFixed", "doubling", "allAtOnce", "E.optimal"},
	}
	scenarios, err := scenarioSet()
	if err != nil {
		return nil, err
	}
	for _, sc := range scenarios {
		span := sc.life.Horizon()
		if math.IsInf(span, 1) {
			span = 1000 // geomdec hl=32: effective scale
		}
		for _, rel := range []float64{1e-4, 1e-3, 1e-2, 0.05, 0.2} {
			c := rel * span
			opt, err := optimalFor(sc.life, c)
			if err != nil {
				return nil, fmt.Errorf("E7 %s rel=%g: %w", sc.name, rel, err)
			}
			if !(opt.ExpectedWork > 0) {
				continue
			}
			norm := func(s sched.Schedule, err error) string {
				if err != nil {
					return "-"
				}
				return fmt.Sprintf("%.4f", sched.ExpectedWork(s, sc.life, c)/opt.ExpectedWork)
			}
			plan, err := guidelinePlan(sc.life, c)
			guidelineCell := "-"
			if err == nil {
				guidelineCell = fmt.Sprintf("%.4f", plan.ExpectedWork/opt.ExpectedWork)
			}
			t.AddRow(sc.name, rel,
				guidelineCell,
				norm(baseline.Greedy(sc.life, c, baseline.GreedyOptions{})),
				norm(baseline.BestFixedChunk(sc.life, c)),
				norm(baseline.Doubling(sc.life, c)),
				norm(baseline.AllAtOnce(sc.life, c)),
				opt.ExpectedWork)
		}
	}
	t.AddNote("guideline ≈ 1 everywhere; greedy = 1 only for geomdec (§6); all-at-once is competitive only as c/L grows toward the episode scale")
	return t, nil
}

// RunE9 runs the Remark's fault-tolerance application: expected
// makespan of a fixed job under guideline-derived save intervals vs
// fixed-interval baselines, for two failure regimes.
func RunE9() (*report.Table, error) {
	t := &report.Table{
		ID:      "E9",
		Title:   "Scheduling saves in a fault-prone system (Remark §1 / [7])",
		Columns: []string{"failure", "policy", "makespan.mean", "ci95", "failures.mean", "lost.mean", "saveTime.mean"},
	}
	gd, err := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/25))
	if err != nil {
		return nil, err
	}
	u, err := lifefn.NewUniform(120)
	if err != nil {
		return nil, err
	}
	const (
		totalWork = 300.0
		saveCost  = 1.0
		runs      = 300
	)
	for _, failure := range []namedLife{{"geomdec(hl=25)", gd}, {"uniform(L=120)", u}} {
		plan, err := guidelinePlan(failure.life, saveCost)
		if err != nil {
			return nil, fmt.Errorf("E9 %s: %w", failure.name, err)
		}
		policies := []struct {
			name    string
			factory func() nowsim.Policy
		}{
			{"guideline", func() nowsim.Policy { return nowsim.NewSchedulePolicy(plan.Schedule, "guideline") }},
			{"fixed(opt-chunk)", func() nowsim.Policy { return &nowsim.FixedChunkPolicy{Chunk: plan.T0} }},
			{"fixed(rare)", func() nowsim.Policy { return &nowsim.FixedChunkPolicy{Chunk: 100} }},
			{"fixed(frantic)", func() nowsim.Policy { return &nowsim.FixedChunkPolicy{Chunk: saveCost + 0.25} }},
		}
		for _, pol := range policies {
			cfg := faultsim.Config{
				TotalWork:     totalWork,
				SaveCost:      saveCost,
				Failure:       failure.life,
				RebootCost:    1,
				PolicyFactory: pol.factory,
			}
			mc, err := faultsim.MonteCarlo(cfg, runs, 4242)
			if err != nil {
				return nil, fmt.Errorf("E9 %s/%s: %w", failure.name, pol.name, err)
			}
			t.AddRow(failure.name, pol.name, mc.Makespan.Mean, mc.Makespan.CI95,
				mc.Failures.Mean, mc.LostWork.Mean, mc.SaveTime.Mean)
		}
	}
	t.AddNote("one inter-failure interval maps to one cycle-stealing episode, the save cost to c; guideline intervals minimize makespan against badly tuned fixed intervals")
	return t, nil
}

// RunE10 measures the trace pipeline: owner absences sampled from a
// known truth, product-limit fit, smoothing into an empirical life
// function, planning on the fit — and the regret of that plan when
// evaluated under the truth.
func RunE10() (*report.Table, error) {
	t := &report.Table{
		ID:      "E10",
		Title:   "Trace-fitted life functions: fit error and schedule regret",
		Columns: []string{"truth", "sessions", "KS.km", "regret.km%", "KS.mle", "regret.mle%", "E.truthPlan"},
	}
	u, err := lifefn.NewUniform(200)
	if err != nil {
		return nil, err
	}
	gd, err := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/32))
	if err != nil {
		return nil, err
	}
	c := 1.0
	for _, truth := range []namedLife{{"uniform(L=200)", u}, {"geomdec(hl=32)", gd}} {
		truthPlan, err := guidelinePlan(truth.life, c)
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", truth.name, err)
		}
		// Parametric family matching the truth (the paper's "encapsulate
		// by some well-behaved curve" done with a known family).
		mleFit := func(obs []trace.Observation) (lifefn.Life, error) {
			switch truth.life.(type) {
			case lifefn.Uniform:
				return trace.FitUniform(obs)
			case lifefn.GeomDecreasing:
				return trace.FitGeomDecreasing(obs)
			default:
				return nil, fmt.Errorf("no parametric family for %s", truth.name)
			}
		}
		span := lifefn.Span(truth.life, 1e-3)
		regretOf := func(fit lifefn.Life) (float64, error) {
			fitPlan, err := guidelinePlan(fit, c)
			if err != nil {
				return 0, err
			}
			eUnderTruth := sched.ExpectedWork(fitPlan.Schedule, truth.life, c)
			return 100 * (1 - eUnderTruth/truthPlan.ExpectedWork), nil
		}
		for _, n := range []int{50, 200, 1000, 5000} {
			obs := trace.SampleAbsences(truth.life, n, rng.New(31337+uint64(n)))
			km, err := trace.FitLife(obs, trace.FitOptions{})
			if err != nil {
				return nil, fmt.Errorf("E10 fit %s n=%d: %w", truth.name, n, err)
			}
			regKM, err := regretOf(km)
			if err != nil {
				return nil, fmt.Errorf("E10 plan-on-fit %s n=%d: %w", truth.name, n, err)
			}
			mle, err := mleFit(obs)
			if err != nil {
				return nil, fmt.Errorf("E10 MLE %s n=%d: %w", truth.name, n, err)
			}
			regMLE, err := regretOf(mle)
			if err != nil {
				return nil, fmt.Errorf("E10 plan-on-MLE %s n=%d: %w", truth.name, n, err)
			}
			t.AddRow(truth.name, n,
				trace.KSDistance(km, truth.life, span, 400), regKM,
				trace.KSDistance(mle, truth.life, span, 400), regMLE,
				truthPlan.ExpectedWork)
		}
	}
	t.AddNote("regret = expected-work loss from planning on the fitted curve instead of the truth; both shrink as the trace grows")
	t.AddNote("when the parametric family is known, the MLE fit reaches negligible regret with far fewer sessions than the non-parametric Kaplan–Meier+smoothing pipeline")
	return t, nil
}
