// Command csfarm simulates a data-parallel task farm over a network of
// borrowable workstations and compares chunking policies end to end —
// the workload the paper's introduction motivates, at the system level.
//
// Usage:
//
//	csfarm                                  # defaults: 8 workers, 4000 tasks
//	csfarm -workers 16 -tasks 20000 -c 2
//	csfarm -dist bimodal -lo 0.5 -hi 6
//	csfarm -policies guideline,fixed:25,allatonce
//	csfarm -trace run.json -trace-format chrome   # per-worker timeline
//	csfarm -metrics-addr :9090                    # /metrics, /debug/pprof
//
// Exit status: 0 on success, 1 when any policy run fails or leaves the
// farm undrained, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("csfarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers  = fs.Int("workers", 8, "number of borrowable workstations")
		tasks    = fs.Int("tasks", 4000, "number of tasks in the job")
		overhead = fs.Float64("c", 1, "per-bundle communication overhead")
		distName = fs.String("dist", "uniform", "task duration distribution: uniform, lognormal, bimodal, pareto")
		lo       = fs.Float64("lo", 0.5, "min task duration")
		hi       = fs.Float64("hi", 3, "max task duration")
		policies = fs.String("policies", "guideline,fixed:25,allatonce", "comma-separated policies: guideline, progressive, fixed:<chunk>, allatonce")
		seed     = fs.Uint64("seed", 1, "RNG seed")
		maxTime  = fs.Float64("maxtime", 1e7, "abort horizon")
	)
	var obsFlags obs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(argv); err != nil {
		// Parse already printed the error and usage to stderr.
		return 2
	}

	dist, err := nowsim.ParseDist(*distName)
	if err != nil {
		fmt.Fprintln(stderr, "csfarm:", err)
		return 2
	}

	reg := obs.NewRegistry()
	session, err := obsFlags.Setup(reg)
	if err != nil {
		fmt.Fprintln(stderr, "csfarm:", err)
		return 2
	}
	defer session.Close()
	o := nowsim.Obs{Sink: session.Sink}

	// The registry is fed only when /metrics can be scraped, so runs
	// without -metrics-addr keep the nil-instrumentation fast path.
	if session.Server != nil {
		o.Metrics = reg
		fmt.Fprintf(stderr, "csfarm: serving metrics on %s\n", session.Server.Addr())
	}

	// Heterogeneous office: alternating memoryless and bounded owners,
	// mixed speeds.
	lives := make([]lifefn.Life, *workers)
	speeds := make([]float64, *workers)
	for i := range lives {
		var l lifefn.Life
		var err error
		if i%2 == 0 {
			l, err = lifefn.NewGeomDecreasing(math.Pow(2, 1.0/(30+10*float64(i%5))))
		} else {
			l, err = lifefn.NewUniform(100 + 50*float64(i%5))
		}
		if err != nil {
			fmt.Fprintln(stderr, "csfarm:", err)
			return 1
		}
		lives[i] = l
		speeds[i] = 0.5 + 0.5*float64(i%3)
	}

	failures := 0
	fmt.Fprintf(stdout, "%-16s %10s %12s %12s %10s %8s %9s\n",
		"policy", "makespan", "committed", "lost", "overhead", "effcy%", "episodes")
	for _, polSpec := range strings.Split(*policies, ",") {
		polSpec = strings.TrimSpace(polSpec)
		ws := make([]nowsim.Worker, *workers)
		bad := false
		for i := range ws {
			spec, err := nowsim.ParsePolicy(polSpec, lives[i], *overhead, core.PlanOptions{})
			if err != nil {
				fmt.Fprintln(stderr, "csfarm:", err)
				failures++
				bad = true
				break
			}
			ws[i] = nowsim.Worker{
				ID:    i,
				Owner: nowsim.LifeOwner{Life: lives[i]},
				BusySampler: func(r *rng.Source) float64 {
					return r.Uniform(10, 40)
				},
				PolicyFactory: spec.Factory,
				Speed:         speeds[i],
			}
		}
		if bad {
			continue
		}
		pool, err := nowsim.NewWorkload(nowsim.WorkloadSpec{
			Tasks: *tasks, Dist: dist, Lo: *lo, Hi: *hi, Mu: 0, Sigma: 0.75,
		}, rng.New(*seed))
		if err != nil {
			fmt.Fprintln(stderr, "csfarm:", err)
			failures++
			continue
		}
		res, err := nowsim.RunFarm(nowsim.FarmConfig{
			Workers:  ws,
			Overhead: *overhead,
			Seed:     *seed,
			MaxTime:  *maxTime,
			Obs:      o,
		}, pool)
		if err != nil {
			fmt.Fprintln(stderr, "csfarm:", err)
			failures++
			continue
		}
		status := ""
		if !res.Drained {
			status = " (NOT DRAINED)"
			failures++
		}
		fmt.Fprintf(stdout, "%-16s %10.0f %12.0f %12.0f %10.0f %8.1f %9d%s\n",
			polSpec, res.Makespan, res.CommittedWork, res.LostWork,
			res.OverheadTime, 100*res.Efficiency(), res.Episodes, status)
	}
	if err := session.Close(); err != nil {
		fmt.Fprintln(stderr, "csfarm:", err)
		failures++
	}
	if failures > 0 {
		return 1
	}
	return 0
}
