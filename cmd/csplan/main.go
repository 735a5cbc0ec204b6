// Command csplan computes a guideline cycle-stealing schedule for a
// named life function and prints the periods, the t0 bracket, the
// expected work, and the comparison against the [BCLR97] optimum where
// one is known.
//
// Usage:
//
//	csplan -life uniform -L 1000 -c 1
//	csplan -life geomdec -halflife 32 -c 1
//	csplan -life geominc -L 64 -c 0.5
//	csplan -life poly -d 3 -L 500 -c 2
//	csplan -life powerlaw -d 2 -c 1        # existence diagnostics
//
// Exit status: 0 on success, 1 when planning fails, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	discretepkg "repro/internal/discrete"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/optimal"
	"repro/internal/sched"
	"repro/internal/worstcase"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("csplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		lifeName = fs.String("life", "uniform", "life function: uniform, poly, geomdec, geominc, powerlaw, weibull")
		lifespan = fs.Float64("L", 1000, "potential lifespan (uniform, poly, geominc)")
		halfLife = fs.Float64("halflife", 32, "half-life (geomdec)")
		d        = fs.Float64("d", 2, "exponent (poly, powerlaw) or shape (weibull)")
		scale    = fs.Float64("scale", 32, "scale (weibull)")
		c        = fs.Float64("c", 1, "per-period communication overhead")
		maxShow  = fs.Int("show", 12, "max periods to print")
		discrete = fs.Bool("discrete", false, "also compute the exact integer-period optimum (DP)")
		q        = fs.Int("q", 0, "also compute the worst-case optimum for q adversarial interruptions")
	)
	if err := fs.Parse(argv); err != nil {
		// Parse already printed the error and usage to stderr.
		return 2
	}

	life, err := buildLife(*lifeName, *lifespan, *halfLife, *d, *scale)
	if err != nil {
		fmt.Fprintln(stderr, "csplan:", err)
		return 2
	}

	pl, err := core.NewPlanner(life, *c, core.PlanOptions{})
	if err != nil {
		fmt.Fprintln(stderr, "csplan:", err)
		return 1
	}
	plan, err := pl.PlanBest()
	if err != nil {
		fmt.Fprintln(stderr, "csplan:", fmt.Errorf("planning failed: %w", err))
		return 1
	}

	fmt.Fprintf(stdout, "life function : %s (shape: %s)\n", life, life.Shape())
	fmt.Fprintf(stdout, "overhead c    : %g\n", *c)
	fmt.Fprintf(stdout, "t0 bracket    : [%.6g, %.6g]  (Thm 3.2 lower %.6g, Thm 3.3 upper %.6g, Lemma 3.1 upper %.6g)\n",
		plan.Bracket.Lo, plan.Bracket.Hi,
		plan.Bracket.Detail.Thm32Lower, plan.Bracket.Detail.Thm33Upper, plan.Bracket.Detail.Lemma31Upper)
	fmt.Fprintf(stdout, "chosen t0     : %.6g\n", plan.T0)
	fmt.Fprintf(stdout, "periods (m=%d): ", plan.Schedule.Len())
	for i := 0; i < plan.Schedule.Len() && i < *maxShow; i++ {
		fmt.Fprintf(stdout, "%.4g ", plan.Schedule.Period(i))
	}
	if plan.Schedule.Len() > *maxShow {
		fmt.Fprintf(stdout, "... (+%d more)", plan.Schedule.Len()-*maxShow)
	}
	fmt.Fprintf(stdout, "\ntotal duration: %.6g\n", plan.Schedule.Total())
	fmt.Fprintf(stdout, "expected work : %.6g\n", plan.ExpectedWork)

	printOptimalComparison(stdout, life, *c, plan)
	printExistence(stdout, life, *c)
	if *discrete {
		printDiscrete(stdout, stderr, life, *c, plan)
	}
	if *q > 0 {
		printWorstCase(stdout, stderr, life, *c, *q)
	}
	return 0
}

func printDiscrete(stdout, stderr io.Writer, life lifefn.Life, c float64, plan core.Plan) {
	horizon := discretepkg.HorizonFor(life, 1e-9, 1<<16)
	dp, err := discretepkg.Optimal(life, c, horizon)
	if err != nil {
		fmt.Fprintln(stderr, "csplan: discrete DP:", err)
		return
	}
	rounded, err := discretepkg.RoundSchedule(plan.Schedule, c)
	if err != nil {
		fmt.Fprintln(stderr, "csplan: rounding:", err)
		return
	}
	eRounded := sched.ExpectedWork(rounded, life, c)
	fmt.Fprintf(stdout, "integer DP    : E %.6g with m=%d; rounded guideline E %.6g (loss %.4f%%)\n",
		dp.ExpectedWork, dp.Schedule.Len(), eRounded,
		100*(1-eRounded/dp.ExpectedWork))
}

func printWorstCase(stdout, stderr io.Writer, life lifefn.Life, c float64, q int) {
	horizon := life.Horizon()
	if math.IsInf(horizon, 1) {
		fmt.Fprintln(stdout, "worst-case    : needs a bounded lifespan (skipped)")
		return
	}
	res, err := worstcase.Optimal(horizon, c, q)
	if err != nil {
		fmt.Fprintln(stderr, "csplan: worst case:", err)
		return
	}
	fmt.Fprintf(stdout, "worst-case q=%d: guarantee %.6g with m=%d equal periods (closed form %.6g); E under p: %.6g\n",
		q, res.Guaranteed, res.Periods,
		worstcase.ClosedFormGuarantee(horizon, c, q),
		sched.ExpectedWork(res.Schedule, life, c))
}

// buildLife resolves powerlaw and weibull, which only csplan plans for,
// and hands every other name to nowsim.BuildLife, as cssim and csserve do.
func buildLife(name string, lifespan, halfLife, d, scale float64) (lifefn.Life, error) {
	switch name {
	case "powerlaw":
		return lifefn.NewPowerLaw(d)
	case "weibull":
		return lifefn.NewWeibull(d, scale)
	case "poly":
		// The poly exponent is an integer: refuse to truncate -d.
		if math.Mod(d, 1) != 0 || d > math.MaxInt32 {
			return nil, fmt.Errorf("poly needs an integer exponent -d, got %g", d)
		}
	}
	return nowsim.BuildLife(name, lifespan, halfLife, int(d))
}

func printOptimalComparison(stdout io.Writer, life lifefn.Life, c float64, plan core.Plan) {
	var (
		res optimal.Result
		err error
		ok  = true
	)
	switch f := life.(type) {
	case lifefn.Uniform:
		res, err = optimal.Uniform(f, c)
	case lifefn.GeomDecreasing:
		res, err = optimal.GeomDecreasing(f, c, 1e-12, 0)
	case lifefn.GeomIncreasing:
		res, err = optimal.GeomIncreasing(f, c)
	default:
		ok = false
	}
	if !ok || err != nil || !(res.ExpectedWork > 0) {
		return
	}
	fmt.Fprintf(stdout, "[BCLR97] opt  : t0 %.6g, E %.6g  (guideline/optimal = %.5f)\n",
		res.T0, res.ExpectedWork, plan.ExpectedWork/res.ExpectedWork)
}

func printExistence(stdout io.Writer, life lifefn.Life, c float64) {
	ad, err := core.AdmitsOptimal(life, c, core.PlanOptions{})
	if err != nil || ad.Admits {
		return
	}
	fmt.Fprintf(stdout, "warning       : no optimal schedule exists (%s); the plan above is best-effort\n", ad.Reason)
}
