package nowsim

import (
	"context"
	"strconv"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// cancelCheckStride is how many episodes run between context checks in
// MonteCarloCtx. Episodes are microseconds of work, so a stride of 128
// keeps the cancellation latency far below any realistic request
// deadline while making the check's cost unmeasurable.
const cancelCheckStride = 128

// MonteCarloCtx runs n independent episodes of policy against owner
// with overhead c, using a deterministic stream seeded by seed, and
// returns aggregate statistics. The mean of Work estimates E(S; p) when
// the policy plays a fixed schedule and the owner's survival is p.
// It is the package's only Monte-Carlo loop: one goroutine draws every
// episode from one unsplit stream, so the result depends only on the
// inputs and the seed.
//
// Every episode's events stream to o.Sink (worker 0) and o.Metrics
// accumulates the standard metric set. The RNG stream is consumed
// outside the episode runner, so the statistics are identical with the
// sink enabled or disabled.
//
// It checks ctx every cancelCheckStride episodes and, when the context
// ends, stops early and returns the statistics accumulated so far
// together with ctx's error; a run that completes all n episodes
// returns a nil error. The estimate service relies on this to free a
// worker whose requester has gone away.
func MonteCarloCtx(ctx context.Context, policy Policy, owner Owner, c float64, n int, seed uint64, o Obs) (MonteCarloResult, error) {
	// Request-trace attribution: when ctx carries an obs.ReqTrace, the
	// whole run is one "mc" phase annotated with the episode count.
	// Wall-clock reads live inside obs, keeping this package free of
	// time sources (the determinism contract); on an untraced context
	// endMC is a no-op closure and the per-episode loop is untouched.
	endMC := obs.StartPhase(ctx, "mc")
	src := rng.New(seed)
	m := newSimMetrics(o.Metrics, c)
	batch := obs.NewSpanner(o.Sink).Start(0, -1, "mc-batch", obs.SpanAttrs{Tasks: n})
	emit := o.episodeEmitIn(m, batch)
	var res EpisodeResult
	var work, lost, periods stats.Running
	var reclaimed int64
	var err error
	done := 0
	for ; done < n; done++ {
		if done%cancelCheckStride == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		r := owner.ReclaimAfter(src)
		runEpisode(&res, policy, c, r, emit)
		m.episodeDone()
		work.Add(res.Work)
		lost.Add(res.Lost)
		periods.Add(float64(res.PeriodsCommitted))
		if res.Reclaimed {
			reclaimed++
		}
	}
	batch.End(float64(done))
	if err != nil {
		endMC("episodes", strconv.Itoa(done), "cancelled", "true")
	} else {
		endMC("episodes", strconv.Itoa(done))
	}
	return MonteCarloResult{
		Work:      stats.Summarize(&work),
		Lost:      stats.Summarize(&lost),
		Periods:   stats.Summarize(&periods),
		Reclaimed: reclaimed,
		Episodes:  int64(done),
	}, err
}
