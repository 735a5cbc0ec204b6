package nowsim

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// MonteCarloParallel is MonteCarloCtx spread across a goroutine pool.
// Episodes are partitioned into contiguous blocks, each with an RNG
// stream derived deterministically from (seed, block index) and its own
// policy instance from factory, so the aggregate statistics are
// bit-identical for any worker count above one — parallelism changes
// wall time, never results. workers <= 0 uses GOMAXPROCS; at one
// worker the run is MonteCarloCtx itself, on the unsplit seed stream.
//
// Goroutines never touch the sink: each block buffers its events and
// the buffers are replayed into o.Sink and o.Metrics in block order
// after the join, so the trace (like the statistics) is the same for
// every worker count above one. Tracing a parallel run therefore holds
// all of a block's events in memory; metrics alone are cheap.
func MonteCarloParallel(factory func() Policy, owner Owner, c float64, n int, seed uint64, workers int, o Obs) MonteCarloResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// The context never ends, so there is no error to report.
		res, _ := MonteCarloCtx(context.TODO(), factory(), owner, c, n, seed, o)
		return res
	}
	// Fixed-size blocks decouple the partitioning from the worker
	// count: block b always simulates the same episodes with the same
	// stream.
	const blockSize = 1024
	numBlocks := (n + blockSize - 1) / blockSize
	observed := o.enabled()

	type blockResult struct {
		work, lost, periods stats.Running
		reclaimed           int64
		events              []EpisodeEvent
	}
	results := make([]blockResult, numBlocks)
	var wg sync.WaitGroup
	next := make(chan int, numBlocks)
	for b := 0; b < numBlocks; b++ {
		next <- b
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				count := min(blockSize, n-b*blockSize)
				src := rng.New(seed ^ (0x9e3779b97f4a7c15 * uint64(b+1)))
				policy := factory()
				res := &results[b]
				var emit func(EpisodeEvent)
				if observed {
					emit = func(e EpisodeEvent) { res.events = append(res.events, e) }
				}
				for i := 0; i < count; i++ {
					r := owner.ReclaimAfter(src)
					ep := runEpisode(policy, c, r, emit)
					res.work.Add(ep.Work)
					res.lost.Add(ep.Lost)
					res.periods.Add(float64(ep.PeriodsCommitted))
					if ep.Reclaimed {
						res.reclaimed++
					}
				}
			}
		}()
	}
	wg.Wait()

	// Merge in block order: deterministic reduction, for the trace and
	// metrics as much as for the statistics. Each block's replay is
	// framed by an "mc-batch" span on the synthetic coordinator row
	// (worker -1); its time axis is the episode index, which stays
	// monotone where the per-episode sim times restart at zero.
	var work, lost, periods stats.Running
	var reclaimed int64
	m := newSimMetrics(o.Metrics, c)
	sp := obs.NewSpanner(o.Sink)
	for b := range results {
		work.Merge(results[b].work)
		lost.Merge(results[b].lost)
		periods.Merge(results[b].periods)
		reclaimed += results[b].reclaimed
		start := b * blockSize
		count := min(blockSize, n-start)
		batch := sp.Start(float64(start), -1, "mc-batch", obs.SpanAttrs{Period: b, Tasks: count})
		if emitMerged := o.episodeEmitIn(0, m, batch); emitMerged != nil {
			for _, e := range results[b].events {
				emitMerged(e)
			}
		}
		batch.End(float64(start + count))
	}
	if m != nil {
		m.episodes.Add(uint64(n))
	}
	return MonteCarloResult{
		Work:      stats.Summarize(&work),
		Lost:      stats.Summarize(&lost),
		Periods:   stats.Summarize(&periods),
		Reclaimed: reclaimed,
		Episodes:  int64(n),
	}
}
