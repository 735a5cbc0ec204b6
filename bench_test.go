package cyclesteal

import (
	"context"
	"io"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/optimal"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
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

// --- The gated table. Each sub-benchmark of BenchmarkPerf is a row of
// BENCH_perf.json, named like it. `make bench-compare`
// (scripts/bench-gate.sh) runs this table at a base commit and at the
// working tree on one host and `csbench -compare` gates every row:
// ns/op against the base, allocs/op against the record. Rename or drop
// a row only together with its record.

// perfSchedule has 64 shrinking periods, long enough that per-episode
// setup does not dominate.
var perfSchedule = func() sched.Schedule {
	periods := make([]float64, 64)
	for i := range periods {
		periods[i] = 40 - 0.5*float64(i)
	}
	return sched.MustNew(periods...)
}()

const (
	perfOverhead = 1.0
	perfReclaim  = 1e9 // never reclaimed: all 64 periods dispatch and commit
)

// perfFamilies are the paper's four life families, swept by the plan/*,
// mc/20k/* and reclaim/* rows.
var perfFamilies = []struct {
	name               string
	lifespan, halfLife float64
	d                  int
}{
	{"uniform", 1000, 0, 0},
	{"poly", 1000, 0, 2},
	{"geomdec", 0, 32, 0},
	{"geominc", 100, 0, 0},
}

// benchSink keeps the compiler from discarding a measured call's result.
var benchSink float64

type perfRow struct {
	name string
	run  func(b *testing.B)
}

func BenchmarkPerf(b *testing.B) {
	for _, r := range perfRows() {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			r.run(b)
		})
	}
}

func perfRows() []perfRow {
	sample := obs.Event{Time: 1.5, Worker: 3, Kind: "commit", Period: 2, Length: 4.5, Tasks: 7}
	episodes := func(o nowsim.Obs) func(b *testing.B) {
		return func(b *testing.B) {
			pol := nowsim.NewSchedulePolicy(perfSchedule, "perf")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nowsim.RunEpisodeObs(pol, perfOverhead, perfReclaim, 0, o)
			}
		}
	}
	rows := []perfRow{
		{"episode/uninstrumented", func(b *testing.B) {
			pol := nowsim.NewSchedulePolicy(perfSchedule, "perf")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nowsim.RunEpisode(pol, perfOverhead, perfReclaim)
			}
		}},
		{"episode/obs-disabled", episodes(nowsim.Obs{})},
		{"episode/jsonl-sink", episodes(nowsim.Obs{Sink: obs.NewJSONLSink(io.Discard)})},
		{"episode/metrics", episodes(nowsim.Obs{Metrics: obs.NewRegistry()})},
		{"farm/uninstrumented", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg, pool := perfFarm(b)
				if _, err := nowsim.RunFarm(cfg, pool); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"sink/jsonl-emit", func(b *testing.B) {
			s := obs.NewJSONLSink(io.Discard)
			for i := 0; i < b.N; i++ {
				s.Emit(sample)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}},
		{"sink/chrome-emit", func(b *testing.B) {
			// The Chrome sink buffers everything until Close; one sink
			// per measured batch keeps that realistic.
			s := obs.NewChromeSink(io.Discard)
			for i := 0; i < b.N; i++ {
				s.Emit(sample)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}},
		{"span/start-end", func(b *testing.B) {
			sp := obs.NewSpanner(obs.NewJSONLSink(io.Discard))
			for i := 0; i < b.N; i++ {
				sp.Start(float64(i), 0, "episode", obs.SpanAttrs{}).End(float64(i) + 1)
			}
		}},
		{"hdr/observe", func(b *testing.B) {
			var h obs.QuantileHist
			for i := 0; i < b.N; i++ {
				h.Observe(float64(i%1000) + 0.5)
			}
		}},
		// The hotpath/* rows pin the //cs:hotpath allocation budgets
		// (see the AllocsPerRun tests next to each root): their
		// recorded allocs/op are 0, so any steady-state allocation
		// creeping back breaches the gate.
		{"hotpath/engine-reuse", func(b *testing.B) {
			var eng nowsim.Engine
			nop := func() {}
			for i := 0; i < b.N; i++ {
				eng.After(1, nop)
				eng.Step()
			}
		}},
		{"hotpath/expected-work", func(b *testing.B) {
			// Box into the interface once, outside the measured loop:
			// re-boxing a concrete life per call is itself the
			// allocation pattern hotalloc flags.
			var l lifefn.Life = mustUniform(b, 2000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += sched.ExpectedWork(perfSchedule, l, perfOverhead)
			}
		}},
		{"hotpath/gradient-into", func(b *testing.B) {
			var l lifefn.Life = mustUniform(b, 2000)
			buf := make([]float64, perfSchedule.Len())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = sched.GradientInto(buf, perfSchedule, l, perfOverhead)
			}
		}},
		{"hotpath/cache-hit", func(b *testing.B) {
			c := serve.NewCache(256, 8, serve.CacheMetrics{})
			c.Put("hot-key", 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get("hot-key"); !ok {
					b.Fatal("cache miss on resident key")
				}
			}
		}},
	}
	var plans, estimates, draws []perfRow
	for _, f := range perfFamilies {
		life := func(b *testing.B) lifefn.Life {
			l, err := nowsim.BuildLife(f.name, f.lifespan, f.halfLife, f.d)
			if err != nil {
				b.Fatal(err)
			}
			return l
		}
		plans = append(plans, perfRow{"plan/" + f.name, func(b *testing.B) {
			pl, err := core.NewPlanner(life(b), 1, core.PlanOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.PlanBest(); err != nil {
					b.Fatal(err)
				}
			}
		}})
		// One 20k-episode estimate: the compute behind /v1/estimate.
		estimates = append(estimates, perfRow{"mc/20k/" + f.name, func(b *testing.B) {
			l := life(b)
			plan := mustPlan(b, l, 1)
			owner := nowsim.LifeOwner{Life: l}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol := nowsim.NewSchedulePolicy(plan.Schedule, "bench")
				if _, err := nowsim.MonteCarloCtx(context.Background(), pol, owner, 1, 20_000, 1, nowsim.Obs{}); err != nil {
					b.Fatal(err)
				}
			}
		}})
		// One inverse-transform reclaim draw, the sampling cost inside
		// every Monte-Carlo episode.
		draws = append(draws, perfRow{"reclaim/" + f.name, func(b *testing.B) {
			owner := nowsim.LifeOwner{Life: life(b)}
			src := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += owner.ReclaimAfter(src)
			}
		}})
	}
	rows = append(rows, plans...)
	rows = append(rows, estimates...)
	return append(rows, draws...)
}

// perfFarm builds a fresh two-worker farm and its task pool; the
// farm/uninstrumented row times the build with the run.
func perfFarm(b *testing.B) (nowsim.FarmConfig, *nowsim.TaskPool) {
	l := mustUniform(b, 80)
	ws := make([]nowsim.Worker, 2)
	for i := range ws {
		ws[i] = nowsim.Worker{
			ID:    i,
			Owner: nowsim.LifeOwner{Life: l},
			BusySampler: func(r *rng.Source) float64 {
				return r.Uniform(5, 15)
			},
			PolicyFactory: func() nowsim.Policy { return &nowsim.FixedChunkPolicy{Chunk: 20} },
		}
	}
	pool, err := nowsim.NewUniformTasks(80, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	return nowsim.FarmConfig{Workers: ws, Overhead: 1, Seed: 7, MaxTime: 1e6}, pool
}

func mustUniform(b *testing.B, lifespan float64) lifefn.Uniform {
	b.Helper()
	l, err := lifefn.NewUniform(lifespan)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// --- Other micro-benchmarks of the library.

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
