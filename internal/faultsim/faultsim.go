// Package faultsim adapts the cycle-stealing guidelines to the problem
// the paper's Section 1 Remark points at: scheduling saves in a
// fault-prone computing system (Coffman, Flatto, Krenin, Acta
// Informatica 30, 1993). The formal correspondence: an inter-failure
// interval plays the role of a cycle-stealing episode, a save's cost
// plays the communication overhead c, and work since the last save is
// destroyed by a failure exactly as an interrupted period is destroyed
// by a returning owner. The expected work committed per interval is
// therefore E(S; p) with p the inter-failure survival function, and the
// guideline schedules of internal/core apply verbatim to choosing save
// points.
//
// Unlike a cycle-stealing episode, the computation does not end at a
// failure: the machine reboots and a fresh interval begins, so a job of
// fixed total work is a renewal process whose expected makespan the
// simulator measures.
package faultsim

import (
	"errors"
	"fmt"

	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Config describes a fault-prone run.
type Config struct {
	// TotalWork is the job size in work units.
	TotalWork float64 //cs:unit work
	// SaveCost is the checkpoint cost c, paid at the end of every
	// committed chunk.
	SaveCost float64 //cs:unit time
	// Failure is the survival function of each inter-failure interval
	// (renewed after every failure).
	Failure lifefn.Life
	// RebootCost is wall time lost to each failure before work resumes.
	RebootCost float64 //cs:unit time
	// PolicyFactory builds the save-interval policy for each
	// inter-failure interval; chunk lengths include the save cost,
	// mirroring period semantics.
	PolicyFactory func() nowsim.Policy
	// MaxIntervals aborts runaway simulations. Zero means 10_000_000.
	MaxIntervals int
}

// Result is the outcome of one fault-prone run.
type Result struct {
	// Makespan is the wall time to commit TotalWork.
	Makespan float64 //cs:unit time
	// Failures is the number of failures survived.
	Failures int
	// LostWork is the total work destroyed by failures.
	LostWork float64 //cs:unit work
	// SaveTime is the total time spent writing checkpoints.
	SaveTime float64 //cs:unit time
	// Completed reports whether the job finished within MaxIntervals.
	Completed bool
}

// Run executes one fault-prone computation with failures sampled from
// src.
func Run(cfg Config, src *rng.Source) (Result, error) {
	if cfg.TotalWork <= 0 {
		return Result{}, fmt.Errorf("faultsim: total work must be positive, got %g", cfg.TotalWork)
	}
	if cfg.SaveCost < 0 || cfg.RebootCost < 0 {
		return Result{}, fmt.Errorf("faultsim: negative costs (save %g, reboot %g)", cfg.SaveCost, cfg.RebootCost)
	}
	if cfg.Failure == nil || cfg.PolicyFactory == nil {
		return Result{}, errors.New("faultsim: failure model and policy factory are required")
	}
	maxIntervals := cfg.MaxIntervals
	if maxIntervals <= 0 {
		maxIntervals = 10_000_000
	}

	var res Result
	committed := 0.0
	clock := 0.0
	for interval := 0; interval < maxIntervals; interval++ {
		failAt := lifefn.Draw(cfg.Failure, src.Float64Open()) // relative to interval start
		policy := cfg.PolicyFactory()
		policy.Reset()
		elapsed := 0.0 // within this interval
		failed := false
		for {
			remaining := cfg.TotalWork - committed
			if remaining <= 0 {
				res.Makespan = clock + elapsed
				res.Completed = true
				return res, nil
			}
			t, ok := policy.NextPeriod(elapsed)
			if !ok || t <= cfg.SaveCost {
				// Policy exhausted mid-job: idle until the failure
				// resets the machine (a deliberately pessimal policy
				// corner; good policies never hit it).
				break
			}
			// Do not overshoot the job: the final chunk shrinks to the
			// remaining work plus its save.
			if sched.PositiveSub(t, cfg.SaveCost) > remaining {
				t = sched.TimeFor(remaining, cfg.SaveCost)
			}
			if elapsed+t < failAt {
				elapsed += t
				committed += sched.PositiveSub(t, cfg.SaveCost)
				res.SaveTime += cfg.SaveCost
				continue
			}
			// Failure strikes during the chunk: its work is lost.
			res.LostWork += sched.PositiveSub(t, cfg.SaveCost)
			failed = true
			break
		}
		if !failed {
			// Idled out: wait for the failure to reset the interval.
		}
		res.Failures++
		clock += failAt + cfg.RebootCost
	}
	res.Makespan = clock
	return res, fmt.Errorf("faultsim: job unfinished after %d intervals (%.3g of %.3g committed)", maxIntervals, committed, cfg.TotalWork)
}

// MonteCarloResult aggregates repeated fault-prone runs.
type MonteCarloResult struct {
	Makespan stats.Summary
	Failures stats.Summary
	LostWork stats.Summary
	SaveTime stats.Summary
	Runs     int
}

// MonteCarlo repeats Run n times with independent failure streams and
// aggregates the outcomes.
func MonteCarlo(cfg Config, n int, seed uint64) (MonteCarloResult, error) {
	root := rng.New(seed)
	var makespan, failures, lost, save stats.Running
	for i := 0; i < n; i++ {
		r, err := Run(cfg, root.Split())
		if err != nil {
			return MonteCarloResult{}, fmt.Errorf("faultsim: run %d: %w", i, err)
		}
		makespan.Add(r.Makespan)
		failures.Add(float64(r.Failures))
		lost.Add(r.LostWork)
		save.Add(r.SaveTime)
	}
	return MonteCarloResult{
		Makespan: stats.Summarize(&makespan),
		Failures: stats.Summarize(&failures),
		LostWork: stats.Summarize(&lost),
		SaveTime: stats.Summarize(&save),
		Runs:     n,
	}, nil
}
