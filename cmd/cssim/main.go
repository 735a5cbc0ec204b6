// Command cssim Monte-Carlo-simulates cycle-stealing policies on a
// scenario and reports committed work, losses and the match against the
// analytic E(S; p).
//
// Usage:
//
//	cssim -life uniform -L 1000 -c 1 -episodes 100000
//	cssim -life geomdec -halflife 32 -c 1 -policy fixed -chunk 10
//	cssim -life geominc -L 64 -c 1 -policy progressive
//	cssim -episodes 2000 -trace episodes.jsonl      # structured trace
//
// Exit status: 0 on success, 1 on runtime failures, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/nowsim"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		lifeName = fs.String("life", "uniform", "life function: uniform, poly, geomdec, geominc")
		lifespan = fs.Float64("L", 1000, "potential lifespan")
		halfLife = fs.Float64("halflife", 32, "half-life (geomdec)")
		d        = fs.Int("d", 2, "exponent (poly)")
		c        = fs.Float64("c", 1, "per-period communication overhead")
		policy   = fs.String("policy", "guideline", "policy: guideline, fixed, progressive, allatonce")
		chunk    = fs.Float64("chunk", 10, "chunk size (fixed policy)")
		episodes = fs.Int("episodes", 100000, "number of Monte-Carlo episodes")
		seed     = fs.Uint64("seed", 1, "RNG seed")
	)
	var obsFlags obs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(argv); err != nil {
		// Parse already printed the error and usage to stderr.
		return 2
	}

	life, err := nowsim.BuildLife(*lifeName, *lifespan, *halfLife, *d)
	if err != nil {
		fmt.Fprintln(stderr, "cssim:", err)
		return 2
	}

	// The historical -policy fixed + -chunk pair maps onto the shared
	// "fixed:<chunk>" spec; all other names pass through unchanged.
	polSpec := *policy
	if polSpec == "fixed" {
		polSpec = fmt.Sprintf("fixed:%g", *chunk)
	}
	spec, err := nowsim.ParsePolicy(polSpec, life, *c, core.PlanOptions{})
	if err != nil {
		fmt.Fprintln(stderr, "cssim:", err)
		return 2
	}
	analytic := math.NaN()
	if spec.Plan != nil {
		analytic = spec.Plan.ExpectedWork
	}

	reg := obs.NewRegistry()
	session, err := obsFlags.Setup(reg)
	if err != nil {
		fmt.Fprintln(stderr, "cssim:", err)
		return 2
	}
	defer session.Close()
	o := nowsim.Obs{Sink: session.Sink}
	if session.Server != nil {
		o.Metrics = reg
		fmt.Fprintf(stderr, "cssim: serving metrics on %s\n", session.Server.Addr())
	}

	pol := spec.Factory()
	res, _ := nowsim.MonteCarloCtx(context.Background(), pol, nowsim.LifeOwner{Life: life}, *c, *episodes, *seed, o)
	if err := session.Close(); err != nil {
		fmt.Fprintln(stderr, "cssim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "scenario      : %s, c=%g, policy=%s, %d episodes (seed %d)\n",
		life, *c, pol, *episodes, *seed)
	fmt.Fprintf(stdout, "work          : %s\n", res.Work)
	fmt.Fprintf(stdout, "lost          : %s\n", res.Lost)
	fmt.Fprintf(stdout, "periods/eps   : %s\n", res.Periods)
	fmt.Fprintf(stdout, "reclaimed     : %d/%d episodes\n", res.Reclaimed, res.Episodes)
	if !math.IsNaN(analytic) {
		z := 0.0
		if res.Work.StdErr > 0 {
			z = math.Abs(res.Work.Mean-analytic) / res.Work.StdErr
		}
		fmt.Fprintf(stdout, "analytic E    : %.6g (z = %.2f)\n", analytic, z)
	}
	return 0
}
