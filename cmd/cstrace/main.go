// Command cstrace demonstrates the trace pipeline: it generates a
// synthetic owner-absence trace with a known ground truth, optionally
// right-censors it, fits a life function by product-limit estimation
// plus monotone smoothing, plans on the fit, and reports the fit error
// and the schedule regret against planning on the truth.
//
// Usage:
//
//	cstrace -truth uniform -L 200 -sessions 1000 -c 1
//	cstrace -truth geomdec -halflife 32 -sessions 500 -censor 60
//	cstrace -trace plans.json -trace-format chrome   # schedule timeline
//
// Exit status: 0 on success, 1 on runtime failures (fit or planning),
// 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		truthName = fs.String("truth", "uniform", "ground-truth life function: uniform, poly, geomdec, geominc")
		lifespan  = fs.Float64("L", 200, "potential lifespan")
		halfLife  = fs.Float64("halflife", 32, "half-life (geomdec)")
		d         = fs.Int("d", 2, "exponent (poly)")
		sessions  = fs.Int("sessions", 1000, "number of absence observations")
		censor    = fs.Float64("censor", 0, "right-censor observations at this duration (0 = none)")
		knots     = fs.Int("knots", 32, "smoothing knots")
		c         = fs.Float64("c", 1, "per-period communication overhead")
		seed      = fs.Uint64("seed", 1, "RNG seed")
	)
	var obsFlags obs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(argv); err != nil {
		// Parse already printed the error and usage to stderr.
		return 2
	}

	truth, err := nowsim.BuildLife(*truthName, *lifespan, *halfLife, *d)
	if err != nil {
		fmt.Fprintln(stderr, "cstrace:", err)
		return 2
	}

	reg := obs.NewRegistry()
	session, err := obsFlags.Setup(reg)
	if err != nil {
		fmt.Fprintln(stderr, "cstrace:", err)
		return 2
	}
	defer session.Close()
	if session.Server != nil {
		fmt.Fprintf(stderr, "cstrace: serving metrics on %s\n", session.Server.Addr())
	}

	absences := trace.SampleAbsences(truth, *sessions, rng.New(*seed))
	if *censor > 0 {
		absences = trace.CensorAt(absences, *censor)
	}
	fit, err := trace.FitLife(absences, trace.FitOptions{Knots: *knots})
	if err != nil {
		fmt.Fprintln(stderr, "cstrace:", fmt.Errorf("fit failed: %w", err))
		return 1
	}

	span := lifefn.Span(truth, 1e-3)
	ks := trace.KSDistance(fit, truth, span, 400)
	fmt.Fprintf(stdout, "truth          : %s\n", truth)
	fmt.Fprintf(stdout, "trace          : %d sessions (censor %g, knots %d, seed %d)\n", *sessions, *censor, *knots, *seed)
	fmt.Fprintf(stdout, "fitted         : %s (shape %s, horizon %g)\n", fit, fit.Shape(), fit.Horizon())
	fmt.Fprintf(stdout, "KS distance    : %.4f\n", ks)

	truthPlan, err := plan(truth, *c)
	if err != nil {
		fmt.Fprintln(stderr, "cstrace:", fmt.Errorf("planning on truth: %w", err))
		return 1
	}
	fitPlan, err := plan(fit, *c)
	if err != nil {
		fmt.Fprintln(stderr, "cstrace:", fmt.Errorf("planning on fit: %w", err))
		return 1
	}
	if session.Sink != nil {
		// Render the two schedules as timelines: the truth plan traces as
		// worker 0, the fit plan as worker 1, each period a
		// dispatch/commit span — chrome format shows them side by side.
		emitPlan(session.Sink, 0, truthPlan)
		emitPlan(session.Sink, 1, fitPlan)
	}
	eUnderTruth := sched.ExpectedWork(fitPlan.Schedule, truth, *c)
	if err := session.Close(); err != nil {
		fmt.Fprintln(stderr, "cstrace:", err)
		return 1
	}
	fmt.Fprintf(stdout, "plan on truth  : t0 %.5g, m %d, E %.6g\n", truthPlan.T0, truthPlan.Schedule.Len(), truthPlan.ExpectedWork)
	fmt.Fprintf(stdout, "plan on fit    : t0 %.5g, m %d, E-under-truth %.6g\n", fitPlan.T0, fitPlan.Schedule.Len(), eUnderTruth)
	fmt.Fprintf(stdout, "regret         : %.3f%%\n", 100*(1-eUnderTruth/truthPlan.ExpectedWork))
	return 0
}

func plan(l lifefn.Life, c float64) (core.Plan, error) {
	pl, err := core.NewPlanner(l, c, core.PlanOptions{})
	if err != nil {
		return core.Plan{}, err
	}
	return pl.PlanBest()
}

// emitPlan replays a plan's schedule as dispatch/commit event pairs on
// the given worker lane, so trace exporters render it as a timeline.
func emitPlan(sink obs.Sink, worker int, p core.Plan) {
	now := 0.0
	for i := 0; i < p.Schedule.Len(); i++ {
		t := p.Schedule.Period(i)
		sink.Emit(obs.Event{Time: now, Worker: worker, Kind: nowsim.EventDispatch.String(), Period: i, Length: t})
		now += t
		sink.Emit(obs.Event{Time: now, Worker: worker, Kind: nowsim.EventCommit.String(), Period: i, Length: t})
	}
}
