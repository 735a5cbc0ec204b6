package nowsim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/lifefn"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
)

// EpisodeResult is the outcome of one cycle-stealing episode.
type EpisodeResult struct {
	// Work is the committed work: Σ (t_i - c) over completed periods.
	Work float64
	// Lost is the work in progress destroyed when the owner returned
	// (zero if the episode ended voluntarily).
	Lost float64
	// Overhead is the communication time spent on completed periods.
	Overhead float64
	// PeriodsDispatched counts all periods started.
	PeriodsDispatched int
	// PeriodsCommitted counts periods that completed before reclaim.
	PeriodsCommitted int
	// Duration is the episode wall time: min(reclaim, voluntary end).
	Duration float64
	// Reclaimed reports whether the owner's return ended the episode.
	Reclaimed bool
}

// RunEpisode plays one episode under the paper's draconian semantics:
// the coordinator dispatches periods according to policy; a period
// whose end arrives before the owner's return commits t-c units of
// work; the owner's return at reclaim kills the period in flight and
// ends the episode. c is the per-period communication overhead;
// reclaim is the (externally sampled) time of the owner's return.
func RunEpisode(policy Policy, c, reclaim float64) (res EpisodeResult) {
	runEpisode(&res, policy, c, reclaim, nil)
	return res
}

// runEpisode is the one episode loop; it writes the outcome to *res.
// Exactly one period is ever in flight, so the episode is a plain loop
// over periods (eq. 2.1): period k commits if it ends before reclaim,
// and the first period the owner reaches is lost and ends the episode.
// The owner returns only for a reclaim in [0, 1e300); otherwise a lost
// period ends the episode at the time it was dispatched, unreclaimed.
//
// emit, when non-nil, receives the event log as it happens
// (MonteCarloCtx forwards it to an obs.Sink; the package tests collect
// it). A nil emit costs one predictable branch per event.
//
// The result goes out through a pointer so that MonteCarloCtx can
// reuse one EpisodeResult across all its episodes.
//
//cs:hotpath episode
func runEpisode(res *EpisodeResult, policy Policy, c, reclaim float64, emit func(EpisodeEvent)) {
	if c < 0 {
		panic(fmt.Sprintf("nowsim: negative overhead %g", c)) //lint:allow hotalloc panic path, never taken in steady state
	}
	policy.Reset()
	*res = EpisodeResult{}
	now := 0.0
	for {
		t, ok := policy.NextPeriod(now)
		if !ok || t <= 0 {
			// Voluntary end: the episode is over before the owner
			// returns.
			res.Duration = now
			if emit != nil {
				emit(EpisodeEvent{Time: now, Kind: EventVoluntaryEnd, Period: -1})
			}
			return
		}
		idx := res.PeriodsDispatched
		res.PeriodsDispatched++
		if emit != nil {
			emit(EpisodeEvent{Time: now, Kind: EventDispatch, Period: idx, Length: t})
		}
		// The `<` form keeps a NaN period on the lost branch.
		if periodEnd := now + t; periodEnd < reclaim {
			res.PeriodsCommitted++
			res.Work += sched.PositiveSub(t, c)
			if t > c {
				res.Overhead += c
			} else {
				res.Overhead += t
			}
			now = periodEnd
			if emit != nil {
				emit(EpisodeEvent{Time: now, Kind: EventCommit, Period: idx, Length: t})
			}
			continue
		}
		// The owner returns at or before the period boundary ("if B is
		// reclaimed by time T_k, the episode ends"): the work is lost.
		res.Lost += sched.PositiveSub(t, c)
		if reclaim >= 0 && reclaim < 1e300 {
			res.Reclaimed = true
			res.Duration = reclaim
			if emit != nil {
				emit(EpisodeEvent{Time: reclaim, Kind: EventKill, Period: idx, Length: t})
			}
		} else {
			res.Duration = now
		}
		return
	}
}

// MonteCarloResult aggregates a Monte-Carlo run of episodes.
type MonteCarloResult struct {
	Work      stats.Summary
	Lost      stats.Summary
	Periods   stats.Summary
	Reclaimed int64
	Episodes  int64
}

// ValidateDistribution runs n episodes of a fixed schedule and tests
// the full distribution of committed-period counts against the exact
// probabilities of sched.CommitProbabilities with Pearson's chi-square.
// Cells with expected count below minExpected are merged into their
// left neighbour (the standard validity adjustment). It returns the
// statistic and p-value; a p-value that is not minuscule on large n
// validates the simulator beyond the mean identity.
func ValidateDistribution(s sched.Schedule, l lifefn.Life, c float64, n int, seed uint64, minExpected float64) (stat, p float64, err error) {
	if minExpected <= 0 {
		minExpected = 10
	}
	probs := sched.CommitProbabilities(s, l)
	counts := make([]int64, len(probs))
	src := rng.New(seed)
	owner := LifeOwner{Life: l}
	pol := NewSchedulePolicy(s, "validate-dist")
	for i := 0; i < n; i++ {
		res := RunEpisode(pol, c, owner.ReclaimAfter(src))
		k := res.PeriodsCommitted
		if k >= len(counts) {
			k = len(counts) - 1
		}
		counts[k]++
	}
	// Merge low-expectation cells leftward.
	var mergedObs []int64
	var mergedExp []float64
	for i := range probs {
		e := probs[i] * float64(n)
		o := counts[i]
		if len(mergedExp) > 0 && (e < minExpected || mergedExp[len(mergedExp)-1] < minExpected) {
			mergedExp[len(mergedExp)-1] += e
			mergedObs[len(mergedObs)-1] += o
			continue
		}
		mergedExp = append(mergedExp, e)
		mergedObs = append(mergedObs, o)
	}
	// Drop zero-probability cells that stayed empty.
	obs := mergedObs[:0:0]
	exp := mergedExp[:0:0]
	for i := range mergedExp {
		if mergedExp[i] > 0 {
			obs = append(obs, mergedObs[i])
			exp = append(exp, mergedExp[i])
		} else if mergedObs[i] != 0 {
			return 0, 0, fmt.Errorf("nowsim: %d episodes landed in a zero-probability cell", mergedObs[i])
		}
	}
	return stats.ChiSquare(obs, exp, 0)
}

// ValidateExpectedWork runs a Monte-Carlo estimate of a schedule's work
// under life function l and returns the analytic E(S; p), the estimate,
// and the absolute z-score of their difference (estimate standard
// errors). A z-score below ~4 on a large n validates equation (2.1).
func ValidateExpectedWork(s sched.Schedule, l lifefn.Life, c float64, n int, seed uint64) (analytic float64, mc stats.Summary, z float64) {
	analytic = sched.ExpectedWork(s, l, c)
	// The context never ends, so there is no error to report.
	res, _ := MonteCarloCtx(context.Background(), NewSchedulePolicy(s, "validate"), LifeOwner{Life: l}, c, n, seed, Obs{})
	mc = res.Work
	if mc.StdErr > 0 {
		z = math.Abs(mc.Mean-analytic) / mc.StdErr
	}
	return analytic, mc, z
}
