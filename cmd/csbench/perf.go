package main

// The -perf suite: calibrated micro-benchmarks over the episode, farm
// and sink hot paths, written to BENCH_perf.json (ns/op and allocs/op;
// min and median over -perf-runs repetitions). A custom harness rather
// than testing.Benchmark keeps the whole suite under a few seconds:
// each measurement is calibrated to ~25ms instead of benchtime's 1s,
// which is plenty for min-of-N on these single-digit-microsecond ops.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

// perfSchedule mirrors the nowsim bench schedule: 64 shrinking periods,
// long enough that per-episode setup does not dominate.
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

type perfSample struct {
	nsPerOp     float64
	allocsPerOp float64
}

// measureOnce calibrates the iteration count to roughly 25ms of work,
// then takes one measured run with allocation accounting.
func measureOnce(f func(n int)) perfSample {
	const target = 25 * time.Millisecond
	n := 1
	for {
		start := time.Now()
		f(n)
		elapsed := time.Since(start)
		if elapsed >= target || n >= 1<<28 {
			break
		}
		next := 2 * n
		if elapsed > 0 {
			ideal := int(1.2 * float64(target) / float64(elapsed) * float64(n))
			if ideal > next {
				next = ideal
			}
		}
		n = next
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f(n)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return perfSample{
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// perfBenchResult is one benchmark's aggregated JSON record.
type perfBenchResult struct {
	Name              string  `json:"name"`
	NsPerOpMin        float64 `json:"ns_per_op_min"`
	NsPerOpMedian     float64 `json:"ns_per_op_median"`
	AllocsPerOpMin    float64 `json:"allocs_per_op_min"`
	AllocsPerOpMedian float64 `json:"allocs_per_op_median"`
}

type perfReport struct {
	Suite      string            `json:"suite"`
	GoVersion  string            `json:"go_version"`
	Runs       int               `json:"runs"`
	Benchmarks []perfBenchResult `json:"benchmarks"`
	// NilObsOverheadPercent is the acceptance-criterion number: the
	// min-of-N episode/obs-disabled cost over the min-of-N
	// episode/uninstrumented baseline, in percent. Min is the standard
	// noise-floor estimator for microbenchmarks; the budget is <= 2%.
	NilObsOverheadPercent float64 `json:"nil_obs_overhead_percent"`
}

func perfFarmConfig(o nowsim.Obs) (nowsim.FarmConfig, *nowsim.TaskPool, error) {
	l, err := lifefn.NewUniform(80)
	if err != nil {
		return nowsim.FarmConfig{}, nil, err
	}
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
		return nowsim.FarmConfig{}, nil, err
	}
	return nowsim.FarmConfig{Workers: ws, Overhead: 1, Seed: 7, MaxTime: 1e6, Obs: o}, pool, nil
}

// perfBenchmarks builds the suite. Each entry's func runs n operations.
func perfBenchmarks() ([]string, map[string]func(n int) error) {
	order := []string{
		"episode/uninstrumented",
		"episode/obs-disabled",
		"episode/jsonl-sink",
		"episode/metrics",
		"farm/uninstrumented",
		"sink/jsonl-emit",
		"sink/chrome-emit",
		"span/start-end",
		"hdr/observe",
		"hotpath/engine-reuse",
		"hotpath/expected-work",
		"hotpath/gradient-into",
		"hotpath/cache-hit",
	}
	sample := obs.Event{Time: 1.5, Worker: 3, Kind: "commit", Period: 2, Length: 4.5, Tasks: 7}
	suite := map[string]func(n int) error{
		"episode/uninstrumented": func(n int) error {
			pol := nowsim.NewSchedulePolicy(perfSchedule, "perf")
			for i := 0; i < n; i++ {
				nowsim.RunEpisode(pol, perfOverhead, perfReclaim)
			}
			return nil
		},
		"episode/obs-disabled": func(n int) error {
			pol := nowsim.NewSchedulePolicy(perfSchedule, "perf")
			for i := 0; i < n; i++ {
				nowsim.RunEpisodeObs(pol, perfOverhead, perfReclaim, 0, nowsim.Obs{})
			}
			return nil
		},
		"episode/jsonl-sink": func(n int) error {
			pol := nowsim.NewSchedulePolicy(perfSchedule, "perf")
			o := nowsim.Obs{Sink: obs.NewJSONLSink(io.Discard)}
			for i := 0; i < n; i++ {
				nowsim.RunEpisodeObs(pol, perfOverhead, perfReclaim, 0, o)
			}
			return nil
		},
		"episode/metrics": func(n int) error {
			pol := nowsim.NewSchedulePolicy(perfSchedule, "perf")
			o := nowsim.Obs{Metrics: obs.NewRegistry()}
			for i := 0; i < n; i++ {
				nowsim.RunEpisodeObs(pol, perfOverhead, perfReclaim, 0, o)
			}
			return nil
		},
		"farm/uninstrumented": func(n int) error {
			for i := 0; i < n; i++ {
				cfg, pool, err := perfFarmConfig(nowsim.Obs{})
				if err != nil {
					return err
				}
				if _, err := nowsim.RunFarm(cfg, pool); err != nil {
					return err
				}
			}
			return nil
		},
		"sink/jsonl-emit": func(n int) error {
			s := obs.NewJSONLSink(io.Discard)
			for i := 0; i < n; i++ {
				s.Emit(sample)
			}
			return s.Close()
		},
		"sink/chrome-emit": func(n int) error {
			// The Chrome sink buffers everything until Close; one
			// sink per measured batch keeps that realistic.
			s := obs.NewChromeSink(io.Discard)
			for i := 0; i < n; i++ {
				s.Emit(sample)
			}
			return s.Close()
		},
		"span/start-end": func(n int) error {
			sp := obs.NewSpanner(obs.NewJSONLSink(io.Discard))
			for i := 0; i < n; i++ {
				sp.Start(float64(i), 0, "episode", obs.SpanAttrs{}).End(float64(i) + 1)
			}
			return nil
		},
		"hdr/observe": func(n int) error {
			var h obs.QuantileHist
			for i := 0; i < n; i++ {
				h.Observe(float64(i%1000) + 0.5)
			}
			return nil
		},
		// The hotpath/* entries pin the //cs:hotpath allocation budgets
		// (see the AllocsPerRun tests next to each root): their
		// committed allocs/op floors are ~0, so any steady-state
		// allocation creeping back breaches -compare immediately.
		"hotpath/engine-reuse": func(n int) error {
			var eng nowsim.Engine
			nop := func() {}
			for i := 0; i < n; i++ {
				eng.After(1, nop)
				eng.Step()
			}
			return nil
		},
		"hotpath/expected-work": func(n int) error {
			u, err := lifefn.NewUniform(2000)
			if err != nil {
				return err
			}
			// Box into the interface once, outside the measured loop —
			// re-boxing a concrete life per call is itself the
			// allocation pattern hotalloc flags.
			var l lifefn.Life = u
			sink := 0.0
			for i := 0; i < n; i++ {
				sink += sched.ExpectedWork(perfSchedule, l, perfOverhead)
			}
			_ = sink
			return nil
		},
		"hotpath/gradient-into": func(n int) error {
			u, err := lifefn.NewUniform(2000)
			if err != nil {
				return err
			}
			var l lifefn.Life = u
			buf := make([]float64, perfSchedule.Len())
			for i := 0; i < n; i++ {
				buf = sched.GradientInto(buf, perfSchedule, l, perfOverhead)
			}
			return nil
		},
		"hotpath/cache-hit": func(n int) error {
			c := serve.NewCache(256, 8, serve.CacheMetrics{})
			c.Put("hot-key", 42)
			for i := 0; i < n; i++ {
				if _, ok := c.Get("hot-key"); !ok {
					return fmt.Errorf("cache miss on resident key")
				}
			}
			return nil
		},
	}
	return order, suite
}

// runPerf executes the suite and writes the JSON report. Exit code 0 on
// success, 1 on any benchmark or write error.
func runPerf(runs int, outPath string, stdout, stderr io.Writer) int {
	report, code := collectPerf(runs, stdout, stderr)
	if code != 0 {
		return code
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "csbench:", err)
		return 1
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "csbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	return 0
}

// collectPerf runs the whole suite and returns the aggregated report
// (shared by -perf, which persists it, and -compare, which diffs it
// against a baseline).
func collectPerf(runs int, stdout, stderr io.Writer) (perfReport, int) {
	if runs < 1 {
		runs = 1
	}
	order, suite := perfBenchmarks()
	report := perfReport{
		Suite:     "cycle-stealing hot paths",
		GoVersion: runtime.Version(),
		Runs:      runs,
	}
	mins := make(map[string]float64)
	for _, name := range order {
		bench := suite[name]
		var benchErr error
		f := func(n int) {
			if err := bench(n); err != nil && benchErr == nil {
				benchErr = err
			}
		}
		ns := make([]float64, 0, runs)
		allocs := make([]float64, 0, runs)
		for r := 0; r < runs; r++ {
			s := measureOnce(f)
			ns = append(ns, s.nsPerOp)
			allocs = append(allocs, s.allocsPerOp)
		}
		if benchErr != nil {
			fmt.Fprintf(stderr, "csbench: perf %s: %v\n", name, benchErr)
			return report, 1
		}
		res := perfBenchResult{
			Name:              name,
			NsPerOpMin:        minOf(ns),
			NsPerOpMedian:     median(ns),
			AllocsPerOpMin:    minOf(allocs),
			AllocsPerOpMedian: median(allocs),
		}
		report.Benchmarks = append(report.Benchmarks, res)
		mins[name] = res.NsPerOpMin
		fmt.Fprintf(stdout, "%-24s %12.1f ns/op (min %.1f)  %8.2f allocs/op\n",
			name, res.NsPerOpMedian, res.NsPerOpMin, res.AllocsPerOpMedian)
	}
	base := mins["episode/uninstrumented"]
	if base > 0 {
		report.NilObsOverheadPercent = 100 * (mins["episode/obs-disabled"] - base) / base
	}
	fmt.Fprintf(stdout, "nil-obs overhead: %+.2f%% (budget: <= 2%% on a quiet machine)\n",
		report.NilObsOverheadPercent)
	return report, 0
}
