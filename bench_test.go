package cyclesteal

import (
	"context"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/optimal"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// --- One benchmark per experiment (E1–E11 in DESIGN.md): each bench
// regenerates the corresponding table end to end, so `go test -bench`
// doubles as the full reproduction harness with timing.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1UniformRisk(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2PolyFamily(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3GeomDecreasing(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4GeomIncreasing(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5Structure(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6MonteCarlo(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7Baselines(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8Existence(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Checkpoint(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10TraceFit(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Perturbation(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12DiscreteDP(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13Competitive(b *testing.B)   { benchExperiment(b, "E13") }
func BenchmarkE14Mixtures(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15Granularity(b *testing.B)   { benchExperiment(b, "E15") }
func BenchmarkE16Ablation(b *testing.B)      { benchExperiment(b, "E16") }
func BenchmarkE17Uniqueness(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkE18Misspec(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19WorstCase(b *testing.B)     { benchExperiment(b, "E19") }
func BenchmarkE20HeteroFarm(b *testing.B)    { benchExperiment(b, "E20") }
func BenchmarkE21Adaptive(b *testing.B)      { benchExperiment(b, "E21") }
func BenchmarkE22RobustBands(b *testing.B)   { benchExperiment(b, "E22") }

// --- Micro-benchmarks of the library's hot paths.

func BenchmarkExpectedWork(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	plan := mustPlan(b, l, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sched.ExpectedWork(plan.Schedule, l, 1)
	}
}

func BenchmarkGenerateFromUniform(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	pl, _ := core.NewPlanner(l, 1, core.PlanOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.GenerateFrom(44); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanBestUniform(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	pl, _ := core.NewPlanner(l, 1, core.PlanOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanBest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanBestGeomDecreasing(b *testing.B) {
	l, _ := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/32))
	pl, _ := core.NewPlanner(l, 1, core.PlanOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanBest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalUniformClosedForm(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.Uniform(l, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroundTruthSmall(b *testing.B) {
	l, _ := lifefn.NewGeomIncreasing(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimal.GroundTruth(l, 1, optimal.GroundTruthOptions{Sweeps: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpisodeSimulation(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	plan := mustPlan(b, l, 1)
	pol := nowsim.NewSchedulePolicy(plan.Schedule, "bench")
	src := rng.New(1)
	owner := nowsim.LifeOwner{Life: l}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nowsim.RunEpisode(pol, 1, owner.ReclaimAfter(src))
	}
}

func BenchmarkTaskEpisode(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	plan := mustPlan(b, l, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool, _ := nowsim.NewUniformTasks(200, 2)
		pol := nowsim.NewSchedulePolicy(plan.Schedule, "bench")
		b.StartTimer()
		_ = nowsim.RunTaskEpisode(pol, pool, 1, 700)
	}
}

func BenchmarkFarm(b *testing.B) {
	l, _ := lifefn.NewUniform(200)
	plan := mustPlan(b, l, 1)
	factory := func() nowsim.Policy { return nowsim.NewSchedulePolicy(plan.Schedule, "bench") }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool, _ := nowsim.NewUniformTasks(300, 2)
		workers := make([]nowsim.Worker, 4)
		for w := range workers {
			workers[w] = nowsim.Worker{
				ID:            w,
				Owner:         nowsim.LifeOwner{Life: l},
				BusySampler:   func(r *rng.Source) float64 { return r.Uniform(5, 20) },
				PolicyFactory: factory,
			}
		}
		b.StartTimer()
		if _, err := nowsim.RunFarm(nowsim.FarmConfig{
			Workers: workers, Overhead: 1, Seed: uint64(i), MaxTime: 1e6,
		}, pool); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloSerial(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	plan := mustPlan(b, l, 1)
	owner := nowsim.LifeOwner{Life: l}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nowsim.MonteCarloCtx(context.Background(), nowsim.NewSchedulePolicy(plan.Schedule, "bench"), owner, 1, 20_000, 1, nowsim.Obs{})
	}
}

// BenchmarkReclaimDraw times one inverse-transform reclaim draw per
// paper family, the sampling cost inside every Monte-Carlo episode.
func BenchmarkReclaimDraw(b *testing.B) {
	for _, f := range []struct {
		name               string
		lifespan, halfLife float64
		d                  int
	}{
		{"uniform", 1000, 0, 0},
		{"poly", 1000, 0, 2},
		{"geomdec", 0, 32, 0},
		{"geominc", 100, 0, 0},
	} {
		l, err := nowsim.BuildLife(f.name, f.lifespan, f.halfLife, f.d)
		if err != nil {
			b.Fatal(err)
		}
		owner := nowsim.LifeOwner{Life: l}
		b.Run(f.name, func(b *testing.B) {
			src := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = owner.ReclaimAfter(src)
			}
		})
	}
}

func BenchmarkTraceFit(b *testing.B) {
	l, _ := lifefn.NewUniform(200)
	obs := trace.SampleAbsences(l, 2000, rng.New(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.FitLife(obs, trace.FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultRun(b *testing.B) {
	failure, _ := lifefn.NewGeomDecreasing(math.Pow(2, 1.0/25))
	cfg := faultsim.Config{
		TotalWork: 300,
		SaveCost:  1,
		Failure:   failure,
		PolicyFactory: func() nowsim.Policy {
			return &nowsim.FixedChunkPolicy{Chunk: 9}
		},
	}
	src := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultsim.Run(cfg, src.Split()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyBaseline(b *testing.B) {
	l, _ := lifefn.NewUniform(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Greedy(l, 1, baseline.GreedyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func mustPlan(b *testing.B, l lifefn.Life, c float64) core.Plan {
	b.Helper()
	pl, err := core.NewPlanner(l, c, core.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := pl.PlanBest()
	if err != nil {
		b.Fatal(err)
	}
	return plan
}
