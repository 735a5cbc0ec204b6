package nowsim

import (
	"fmt"

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

// RunEpisode plays one episode under the paper's draconian semantics,
// as a discrete-event simulation: the coordinator dispatches periods
// according to policy; a period whose end arrives before the owner's
// return commits t-c units of work; the owner's return at reclaim kills
// the period in flight and ends the episode. c is the per-period
// communication overhead; reclaim is the (externally sampled) time of
// the owner's return.
//
// All closures here are hoisted to episode setup: the per-period steady
// state schedules the shared commit closure with curT updated in place,
// which is sound because exactly one period is ever in flight.
//
//cs:hotpath episode
func RunEpisode(policy Policy, c, reclaim float64) EpisodeResult {
	if c < 0 {
		panic(fmt.Sprintf("nowsim: negative overhead %g", c)) //lint:allow hotalloc panic path, never taken in steady state
	}
	policy.Reset()
	var (
		eng   Engine
		res   EpisodeResult
		end   bool
		owner Handle
		curT  float64 // length of the single period in flight
	)
	//lint:allow hotalloc one closure per episode, not per period
	ownerBack := func() {
		// Kills whatever is in flight: the dispatch loop checks `end`
		// before committing.
		end = true
		res.Reclaimed = true
		res.Duration = eng.Now()
	}
	if reclaim >= 0 && reclaim < 1e300 {
		owner = eng.At(reclaim, ownerBack)
	}
	var dispatch func()
	// commit handles every period's completion: results return to the
	// coordinator. It reads curT (set by dispatch when the period was
	// scheduled) before dispatching the next.
	//lint:allow hotalloc one closure per episode, re-armed each period
	commit := func() {
		if end {
			return
		}
		t := curT
		res.PeriodsCommitted++
		res.Work += sched.PositiveSub(t, c)
		if t > c {
			res.Overhead += c
		} else {
			res.Overhead += t
		}
		dispatch()
	}
	//lint:allow hotalloc one closure per episode, not per period
	dispatch = func() {
		if end {
			return
		}
		t, ok := policy.NextPeriod(eng.Now())
		if !ok || t <= 0 {
			// Voluntary end: the episode is over before the owner
			// returns; the pending owner event must not fire.
			end = true
			res.Duration = eng.Now()
			owner.Cancel()
			return
		}
		res.PeriodsDispatched++
		periodEnd := eng.Now() + t
		if periodEnd < reclaim {
			curT = t
			eng.At(periodEnd, commit)
			return
		}
		// The owner returns at or before the period boundary ("if B is
		// reclaimed by time T_k, the episode ends"): the work is lost.
		res.Lost += sched.PositiveSub(t, c)
	}
	dispatch()
	eng.RunAll()
	if !res.Reclaimed && res.Duration == 0 {
		res.Duration = eng.Now()
	}
	return res
}

// runEpisodeEmit is RunEpisode with a structured event hook: emit
// receives the log as it happens (RunEpisodeRecorded collects it;
// RunEpisodeObs forwards it to an obs.Sink). It is a separate loop
// rather than a hook inside RunEpisode because the hook's captured
// variables enlarge every per-period closure — measurably (>10%) more
// than the ≤2% disabled-cost budget even when emit is nil. The two
// loops must compute identical results for identical inputs; the
// determinism and recorded-vs-plain regression tests pin that
// equivalence, so edits to either loop must keep its twin in step —
// including the closure hoisting: both loops re-arm one shared commit
// closure per period with curT/curIdx updated in place.
//
//cs:hotpath episode-emit
func runEpisodeEmit(policy Policy, c, reclaim float64, emit func(EpisodeEvent)) EpisodeResult {
	if c < 0 {
		panic(fmt.Sprintf("nowsim: negative overhead %g", c)) //lint:allow hotalloc panic path, never taken in steady state
	}
	policy.Reset()
	var (
		eng    Engine
		res    EpisodeResult
		end    bool
		owner  Handle
		curT   float64 // length of the single period in flight
		curIdx int     // index of the single period in flight
	)
	//lint:allow hotalloc one closure per episode, not per period
	ownerBack := func() {
		end = true
		res.Reclaimed = true
		res.Duration = eng.Now()
	}
	if reclaim >= 0 && reclaim < 1e300 {
		owner = eng.At(reclaim, ownerBack)
	}
	var dispatch func()
	//lint:allow hotalloc one closure per episode, re-armed each period
	commit := func() {
		if end {
			return
		}
		t, idx := curT, curIdx
		res.PeriodsCommitted++
		res.Work += sched.PositiveSub(t, c)
		if t > c {
			res.Overhead += c
		} else {
			res.Overhead += t
		}
		emit(EpisodeEvent{Time: eng.Now(), Kind: EventCommit, Period: idx, Length: t})
		dispatch()
	}
	//lint:allow hotalloc one closure per episode, not per period
	dispatch = func() {
		if end {
			return
		}
		t, ok := policy.NextPeriod(eng.Now())
		if !ok || t <= 0 {
			end = true
			res.Duration = eng.Now()
			owner.Cancel()
			emit(EpisodeEvent{Time: eng.Now(), Kind: EventVoluntaryEnd, Period: -1})
			return
		}
		idx := res.PeriodsDispatched
		res.PeriodsDispatched++
		emit(EpisodeEvent{Time: eng.Now(), Kind: EventDispatch, Period: idx, Length: t})
		periodEnd := eng.Now() + t
		if periodEnd < reclaim {
			curT, curIdx = t, idx
			eng.At(periodEnd, commit)
			return
		}
		res.Lost += sched.PositiveSub(t, c)
		//lint:allow hotalloc kill closure fires at most once, at episode end
		eng.At(reclaim, func() {
			emit(EpisodeEvent{Time: eng.Now(), Kind: EventKill, Period: idx, Length: t})
		})
	}
	dispatch()
	eng.RunAll()
	if !res.Reclaimed && res.Duration == 0 {
		res.Duration = eng.Now()
	}
	return res
}

// runEpisodeMaybe routes through the hooked loop only when emit is
// non-nil, keeping unobserved runs on the fast runner.
func runEpisodeMaybe(policy Policy, c, reclaim float64, emit func(EpisodeEvent)) EpisodeResult {
	if emit == nil {
		return RunEpisode(policy, c, reclaim)
	}
	return runEpisodeEmit(policy, c, reclaim, emit)
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
	res := MonteCarloParallel(func() Policy { return NewSchedulePolicy(s, "validate") }, LifeOwner{Life: l}, c, n, seed, 1, Obs{})
	mc = res.Work
	if mc.StdErr > 0 {
		z = abs(mc.Mean-analytic) / mc.StdErr
	}
	return analytic, mc, z
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
