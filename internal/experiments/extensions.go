package experiments

import (
	"fmt"
	"math"

	"repro/internal/competitive"
	"repro/internal/discrete"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/optimal"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

// RunE12 answers the paper's closing open question — do the continuous
// guidelines yield valuable discrete analogues? — by comparing the
// exactly optimal integer-period schedule (dynamic programming) with
// the rounded continuous guideline schedule.
func RunE12() (*report.Table, error) {
	t := &report.Table{
		ID:      "E12",
		Title:   "Discrete analogue (§6 open question): integer DP vs rounded guideline",
		Columns: []string{"scenario", "c", "E.continuous", "E.intDP", "E.rounded", "roundLoss%", "m.DP", "m.cont"},
	}
	u500, err := lifefn.NewUniform(500)
	if err != nil {
		return nil, err
	}
	p3, err := lifefn.NewPoly(3, 300)
	if err != nil {
		return nil, err
	}
	gi, err := lifefn.NewGeomIncreasing(64)
	if err != nil {
		return nil, err
	}
	gd, err := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/24))
	if err != nil {
		return nil, err
	}
	for _, sc := range []namedLife{
		{"uniform(L=500)", u500},
		{"poly(d=3,L=300)", p3},
		{"geominc(L=64)", gi},
		{"geomdec(hl=24)", gd},
	} {
		for _, c := range []float64{1, 3} {
			plan, err := guidelinePlan(sc.life, c)
			if err != nil {
				return nil, fmt.Errorf("E12 %s c=%g: %w", sc.name, c, err)
			}
			horizon := discrete.HorizonFor(sc.life, 1e-9, 4096)
			dp, err := discrete.Optimal(sc.life, c, horizon)
			if err != nil {
				return nil, fmt.Errorf("E12 DP %s c=%g: %w", sc.name, c, err)
			}
			rounded, err := discrete.RoundSchedule(plan.Schedule, c)
			if err != nil {
				return nil, err
			}
			eRounded := sched.ExpectedWork(rounded, sc.life, c)
			loss := 100 * (1 - ratio(eRounded, dp.ExpectedWork))
			t.AddRow(sc.name, c, plan.ExpectedWork, dp.ExpectedWork, eRounded, loss,
				dp.Schedule.Len(), plan.Schedule.Len())
		}
	}
	t.AddNote("roundLoss%% = integer-optimal work sacrificed by simply rounding the continuous guideline — fractions of a percent: the continuous guidelines do yield valuable discrete analogues")
	return t, nil
}

// RunE13 covers the worst-case regime the paper defers to its sequel
// and to [2]: deterministic and randomized chunking judged by
// competitive ratio against an adversarial reclaim time, across
// horizon scales. The measured finding (documented in EXPERIMENTS.md):
// in the paper's *cumulative-work* model the ratio is constant in the
// horizon — flat chunks sized to the warm-up bound and phase-randomized
// doubling both hold a fixed fraction of the offline optimum — unlike
// the single-commitment model of [2], where only logarithmic
// competitiveness is possible.
func RunE13() (*report.Table, error) {
	t := &report.Table{
		ID:      "E13",
		Title:   "Worst-case (risk-oblivious) cycle-stealing: competitive ratios",
		Columns: []string{"horizon", "rho.doubling", "rho.bestRamp", "gamma.best", "rho.randomized", "allAtOnce"},
	}
	const (
		c    = 1.0
		rmin = 8.0
	)
	for _, horizon := range []float64{256, 1024, 4096, 16384, 65536} {
		ramp, err := competitive.GeometricRamp(2, 2, c, horizon)
		if err != nil {
			return nil, err
		}
		rhoDet, err := competitive.Ratio(ramp, c, rmin, horizon)
		if err != nil {
			return nil, err
		}
		_, gamma, rhoBest, err := competitive.BestGeometricRamp(c, rmin, horizon)
		if err != nil {
			return nil, err
		}
		rhoRand, _, err := competitive.RandomizedDoublingRatio(c, rmin, horizon, 64, 256)
		if err != nil {
			return nil, err
		}
		allAtOnce, err := competitive.Ratio(sched.MustNew(horizon), c, rmin, horizon)
		if err != nil {
			return nil, err
		}
		t.AddRow(horizon, rhoDet, rhoBest, gamma, rhoRand, allAtOnce)
	}
	t.AddNote("ratios are flat across 2.5 decades of horizons: cumulative-work cycle-stealing is constant-competitive (contrast with the log barrier of [2]'s single-commitment model); all-at-once is 0-competitive")
	return t, nil
}

// RunE14 plans under multimodal owner behaviour: mixtures of the basic
// scenarios, where curvature is generally lost and only the paper's
// shape-free machinery applies. The guideline plan is checked against
// the scenario-agnostic ground truth and the greedy baseline.
func RunE14() (*report.Table, error) {
	t := &report.Table{
		ID:      "E14",
		Title:   "Multimodal (mixture) life functions: shape-free guideline quality",
		Columns: []string{"mixture", "shapeDetected", "t0", "m", "E.guideline", "E.groundtruth", "E.ratio"},
	}
	coffee, err := lifefn.NewUniform(30)
	if err != nil {
		return nil, err
	}
	meeting, err := lifefn.NewUniform(300)
	if err != nil {
		return nil, err
	}
	memoryless, err := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/40))
	if err != nil {
		return nil, err
	}
	lateRisk, err := lifefn.NewPoly(3, 200)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name       string
		components []lifefn.Life
		weights    []float64
	}{
		{"0.7·uniform(30) + 0.3·uniform(300)", []lifefn.Life{coffee, meeting}, []float64{7, 3}},
		{"0.5·geomdec(40) + 0.5·uniform(300)", []lifefn.Life{memoryless, meeting}, []float64{1, 1}},
		{"0.6·poly3(200) + 0.4·uniform(30)", []lifefn.Life{lateRisk, coffee}, []float64{6, 4}},
	}
	const c = 1.0
	for _, cse := range cases {
		mix, err := lifefn.NewMixture(cse.components, cse.weights)
		if err != nil {
			return nil, err
		}
		plan, err := guidelinePlan(mix, c)
		if err != nil {
			return nil, fmt.Errorf("E14 %s: %w", cse.name, err)
		}
		gt, err := optimal.GroundTruth(mix, c, optimal.GroundTruthOptions{Sweeps: 15})
		if err != nil {
			return nil, err
		}
		t.AddRow(cse.name, mix.Shape().String(), plan.T0, plan.Schedule.Len(),
			plan.ExpectedWork, gt.ExpectedWork, ratio(plan.ExpectedWork, gt.ExpectedWork))
	}
	t.AddNote("with curvature lost, only the Thm 3.2 lower bound and the span cap bracket t0 — the guideline search still lands within a fraction of a percent of the ground truth")
	return t, nil
}

// RunE15 measures the data-parallel quantization the model abstracts
// away: periods carry indivisible tasks, so a period of length t packs
// at most floor((t-c)/d)·d task time. The experiment sweeps task
// granularity and reports simulated committed work as a fraction of the
// fluid (infinitely divisible) analytic E.
func RunE15() (*report.Table, error) {
	t := &report.Table{
		ID:      "E15",
		Title:   "Task granularity: simulated committed work vs fluid E(S;p)",
		Columns: []string{"taskDuration", "E.fluid", "work.simulated", "ci95", "fillFraction", "fill.bestfit", "slack/episode"},
	}
	life, err := lifefn.NewUniform(1000)
	if err != nil {
		return nil, err
	}
	const (
		c        = 1.0
		episodes = 1000
	)
	plan, err := guidelinePlan(life, c)
	if err != nil {
		return nil, err
	}
	owner := nowsim.LifeOwner{Life: life}
	for _, d := range []float64{0.1, 0.5, 1, 2, 5, 10, 20} {
		src := rng.New(5150 + uint64(d*10))
		// Mixed durations in [d/2, 3d/2) make packing non-trivial; the
		// base workload is generated once and cloned per episode.
		base, err := nowsim.NewWorkload(nowsim.WorkloadSpec{
			Tasks: int(1500/d) + 32, Dist: nowsim.DistUniform, Lo: d / 2, Hi: 3 * d / 2,
		}, rng.New(uint64(d*100)+9))
		if err != nil {
			return nil, err
		}
		var work, workBF, slack stats.Running
		for i := 0; i < episodes; i++ {
			reclaim := owner.ReclaimAfter(src)
			pol := nowsim.NewSchedulePolicy(plan.Schedule, "E15")
			res := nowsim.RunTaskEpisode(pol, base.Clone(), c, reclaim)
			work.Add(res.Work)
			slack.Add(res.Slack)
			resBF := nowsim.RunTaskEpisodeOpt(pol, base.Clone(), c, reclaim,
				nowsim.TaskEpisodeOptions{BestFit: true})
			workBF.Add(resBF.Work)
		}
		t.AddRow(d, plan.ExpectedWork, work.Mean(), work.CI(0.95),
			ratio(work.Mean(), plan.ExpectedWork),
			ratio(workBF.Mean(), plan.ExpectedWork), slack.Mean())
	}
	t.AddNote("fillFraction → 1 as tasks shrink (the fluid model is the fine-grain limit); coarse tasks strand period capacity as slack — the cost of indivisibility the paper's task-duration assumption hides")
	t.AddNote("fill.bestfit: best-fit-decreasing packing (legal because task durations are known) recovers part of the coarse-grain loss over FIFO packing")
	return t, nil
}
