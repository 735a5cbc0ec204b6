// Package cyclesteal is a production-oriented implementation of the
// cycle-stealing scheduling guidelines of Rosenberg, "Guidelines for
// Data-Parallel Cycle-Stealing in Networks of Workstations, I"
// (CMPSCI TR 98-15 / IPPS 1998), together with everything the paper
// builds on: the [Bhatt–Chung–Leighton–Rosenberg 1997] optimal
// schedules it compares against, baseline policies, a NOW simulator,
// owner-trace fitting, and the fault-tolerant checkpointing adaptation
// of the paper's Remark.
//
// # The model in one paragraph
//
// Workstation A borrows workstation B under a draconian contract: when
// B's owner returns, whatever B was doing is destroyed. A schedules the
// episode as periods t0, t1, ...; each period costs a communication
// overhead c and commits t-c units of work only if the owner stays away
// past its end. Risk is captured by a life function p(t) = probability
// the owner has not returned by time t. The goal is to maximize
// expected committed work E = Σ (t_i ⊖ c)·p(T_i).
//
// # Quick start
//
//	life, _ := cyclesteal.UniformRisk(1000)        // owner returns within 1000s, uniform risk
//	plan, _ := cyclesteal.Plan(life, 2)            // overhead: 2s per chunk round-trip
//	fmt.Println(plan.Schedule)                     // decreasing chunk sizes, paper's (4.1)
//	fmt.Println(plan.ExpectedWork)                 // ≈ the [BCLR97] optimum
//
// The facade re-exports the most used types; the full surface lives in
// the internal packages (core, lifefn, sched, optimal, baseline,
// nowsim, trace, faultsim), each documented independently.
package cyclesteal

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/sched"
)

// Re-exported core types. See the originating packages for full
// documentation.
type (
	// Life is a survival function p(t) describing reclaim risk.
	Life = lifefn.Life
	// Shape classifies a life function's curvature.
	Shape = lifefn.Shape
	// Schedule is a sequence of period lengths.
	Schedule = sched.Schedule
	// PlanResult is a guideline plan: schedule, t0, bracket, E.
	PlanResult = core.Plan
	// PlanOptions tunes generation and the t0 search.
	PlanOptions = core.PlanOptions
	// Planner derives guideline schedules for one configuration.
	Planner = core.Planner
	// Policy decides period lengths during a simulated episode.
	Policy = nowsim.Policy
	// EpisodeResult is one simulated episode's outcome.
	EpisodeResult = nowsim.EpisodeResult
)

// Shape values.
const (
	ShapeUnknown = lifefn.Unknown
	ShapeConcave = lifefn.Concave
	ShapeConvex  = lifefn.Convex
	ShapeLinear  = lifefn.Linear
)

// UniformRisk returns the uniform-risk life function p(t) = 1 - t/L:
// the owner returns within L time units, all instants equally risky.
func UniformRisk(lifespan float64) (Life, error) { return lifefn.NewUniform(lifespan) }

// PolynomialRisk returns p_{d,L}(t) = 1 - t^d/L^d: risk concentrated
// near the end of the lifespan (concave for d >= 2).
func PolynomialRisk(d int, lifespan float64) (Life, error) { return lifefn.NewPoly(d, lifespan) }

// HalfLife returns the geometrically decreasing lifespan life function
// a^{-t} parameterized by its half-life: the probability the owner is
// still away halves every halfLife time units.
func HalfLife(halfLife float64) (Life, error) {
	if !(halfLife > 0) || math.IsInf(halfLife, 0) {
		return nil, fmt.Errorf("cyclesteal: half-life must be positive and finite, got %g", halfLife)
	}
	return lifefn.NewGeomDecreasing(math.Pow(2, 1/halfLife))
}

// DoublingRisk returns the geometrically increasing risk life function
// (2^L - 2^t)/(2^L - 1): the interruption risk doubles every time unit
// (the paper's "coffee break" scenario).
func DoublingRisk(lifespan float64) (Life, error) { return lifefn.NewGeomIncreasing(lifespan) }

// FromTraceSamples builds a life function from tabulated survival
// samples (ts strictly increasing from 0, ps nonincreasing from 1); see
// internal/trace for fitting raw absence observations.
func FromTraceSamples(ts, ps []float64) (Life, error) { return lifefn.NewEmpirical(ts, ps) }

// Plan computes the guideline schedule for life function l and
// per-period overhead c with default options: the Theorem 3.2/3.3
// bracket for t0, a bracketed search, and forward generation through
// system (3.6).
func Plan(l Life, c float64) (PlanResult, error) {
	return PlanWith(l, c, PlanOptions{})
}

// PlanWith is Plan with explicit options.
func PlanWith(l Life, c float64, opt PlanOptions) (PlanResult, error) {
	pl, err := core.NewPlanner(l, c, opt)
	if err != nil {
		return PlanResult{}, err
	}
	return pl.PlanBest()
}

// ExpectedWork evaluates E(S; p) — equation (2.1) — for any schedule.
func ExpectedWork(s Schedule, l Life, c float64) float64 {
	return sched.ExpectedWork(s, l, c)
}

// SimulateEpisodes Monte-Carlo-runs a schedule against owners whose
// reclaim times follow l, returning the mean committed work and its
// 95% confidence half-width. It is the empirical counterpart of
// ExpectedWork and runs nowsim.MonteCarloCtx on one goroutine, so the
// result depends only on the seed.
func SimulateEpisodes(s Schedule, l Life, c float64, episodes int, seed uint64) (mean, ci95 float64) {
	// The context never ends, so there is no error to report.
	res, _ := nowsim.MonteCarloCtx(context.Background(), nowsim.NewSchedulePolicy(s, "facade"),
		nowsim.LifeOwner{Life: l}, c, episodes, seed, nowsim.Obs{})
	return res.Work.Mean, res.Work.CI95
}
