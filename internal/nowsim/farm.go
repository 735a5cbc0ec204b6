package nowsim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sched"
)

// Worker describes one borrowable workstation in a farm: how long its
// owner stays at the machine between absences, how long absences last
// (the episode opportunities), and which chunking policy the
// coordinator applies to it.
type Worker struct {
	ID int
	// Owner samples the reclaim time of each episode.
	Owner Owner
	// BusySampler samples how long the owner occupies the machine
	// between episodes. A nil sampler means instant turnaround.
	BusySampler func(r *rng.Source) float64
	// PolicyFactory builds a fresh policy for each episode.
	PolicyFactory func() Policy
	// Speed is the workstation's relative compute speed: a bundle of
	// task time w occupies w/Speed wall time on this worker (the
	// communication overhead is wall time and does not scale). Zero
	// means 1.0. NOWs are heterogeneous; the model's task durations are
	// reference-machine durations.
	Speed float64
}

// speed returns the worker's effective speed factor.
func (w Worker) speed() float64 {
	if w.Speed <= 0 {
		return 1
	}
	return w.Speed
}

// FarmConfig configures a data-parallel farm run.
type FarmConfig struct {
	Workers  []Worker
	Overhead float64
	Seed     uint64
	// MaxTime aborts the run if the pool is not drained by then.
	// Zero means 1e9.
	MaxTime float64
	// Obs is the optional observability bundle. When enabled, the run
	// streams episode-start/dispatch/commit/kill/steal/voluntary-end
	// events to Obs.Sink tagged with Worker.ID (IDs should be unique:
	// the Chrome exporter keys timeline rows and open period spans by
	// them), and Obs.Metrics accumulates the farm-wide cs_* series plus
	// per-worker committed/lost/overhead series. Instrumentation never
	// changes the simulation: results are identical with or without it.
	Obs Obs
}

// WorkerStats summarizes one worker's participation.
type WorkerStats struct {
	ID             int
	Episodes       int
	TasksCompleted int
	TasksLost      int
	CommittedWork  float64
	LostWork       float64
	Overhead       float64
}

// FarmResult summarizes a farm run.
type FarmResult struct {
	// Makespan is when the last task committed (or MaxTime on abort).
	Makespan float64
	// Drained reports whether every task committed before MaxTime.
	Drained bool
	// TasksCompleted across all workers.
	TasksCompleted int
	// CommittedWork, LostWork and OverheadTime account for how borrowed
	// time was spent.
	CommittedWork float64
	LostWork      float64
	OverheadTime  float64
	// Episodes across all workers.
	Episodes  int
	PerWorker []WorkerStats
}

// Efficiency returns committed work divided by total borrowed time
// (committed + lost + overhead); 0 when nothing was borrowed.
func (r FarmResult) Efficiency() float64 {
	total := r.CommittedWork + r.LostWork + r.OverheadTime
	if total <= 0 {
		return 0
	}
	return r.CommittedWork / total
}

// RunFarm executes a data-parallel job on a farm of borrowed
// workstations: each worker alternates owner-present stretches with
// cycle-stealing episodes; during an episode the coordinator dispatches
// task bundles under the worker's policy, with the draconian
// kill-on-reclaim semantics; killed bundles return to the shared pool
// for re-execution elsewhere. The run ends when every task has
// committed or at MaxTime.
func RunFarm(cfg FarmConfig, pool *TaskPool) (FarmResult, error) {
	if len(cfg.Workers) == 0 {
		return FarmResult{}, errors.New("nowsim: farm needs at least one worker")
	}
	if cfg.Overhead < 0 {
		return FarmResult{}, fmt.Errorf("nowsim: negative overhead %g", cfg.Overhead)
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = 1e9
	}
	var (
		eng      Engine
		res      FarmResult
		inFlight int
		parked   []*farmWorker
		done     bool
	)
	res.PerWorker = make([]WorkerStats, len(cfg.Workers))
	root := rng.New(cfg.Seed)

	workers := make([]*farmWorker, len(cfg.Workers))
	for i := range cfg.Workers {
		w := &farmWorker{
			spec:  cfg.Workers[i],
			stats: &res.PerWorker[i],
			src:   root.Split(),
			idx:   i,
		}
		w.stats.ID = cfg.Workers[i].ID
		workers[i] = w
	}
	fo := newFarmObs(cfg.Obs, cfg.Overhead, cfg.Workers)

	checkDone := func() {
		if !done && pool.Remaining() == 0 && inFlight == 0 {
			done = true
			res.Drained = true
			res.Makespan = eng.Now()
		}
	}
	var wake func()

	// startEpisode begins a cycle-stealing episode on worker w.
	var startEpisode func(w *farmWorker)
	// park idles a worker whose pool is empty until a requeue wakes it.
	park := func(w *farmWorker) {
		fo.parked(w, eng.Now())
		parked = append(parked, w)
	}
	wake = func() {
		for _, w := range parked {
			ww := w
			fo.woke(ww, eng.Now())
			eng.After(0, func() { startEpisode(ww) })
		}
		parked = parked[:0]
	}

	startEpisode = func(w *farmWorker) {
		if done {
			return
		}
		if pool.Remaining() == 0 {
			park(w)
			return
		}
		policy := w.spec.PolicyFactory()
		policy.Reset()
		w.stats.Episodes++
		res.Episodes++
		fo.episodeStart(w, eng.Now())
		episodeStart := eng.Now()
		reclaimAt := episodeStart + w.spec.Owner.ReclaimAfter(w.src)
		reclaimed := false
		endEpisode := func(byOwner bool) {
			if byOwner {
				reclaimed = true
			}
			fo.episodeEnd(w, eng.Now())
			// Owner occupies the machine; return for another episode
			// afterwards.
			busy := 0.0
			if w.spec.BusySampler != nil {
				busy = w.spec.BusySampler(w.src)
			}
			if byOwner && busy == 0 {
				// Ensure strictly positive turnaround so reclaim
				// actually interrupts.
				busy = 1e-9
			}
			if eng.Now()+busy <= maxTime && !done {
				eng.After(busy, func() { startEpisode(w) })
			}
		}

		var dispatch func()
		dispatch = func() {
			if done || reclaimed {
				return
			}
			t, ok := policy.NextPeriod(eng.Now() - episodeStart)
			if !ok || t <= cfg.Overhead {
				fo.voluntaryEnd(w, eng.Now())
				endEpisode(false)
				return
			}
			// A period of wall length t leaves t ⊖ c for computing, which
			// at this worker's speed covers (t ⊖ c)·speed reference task
			// time.
			bundle, used := pool.TakeBundle(sched.PositiveSub(t, cfg.Overhead) * w.spec.speed())
			if len(bundle) == 0 {
				fo.voluntaryEnd(w, eng.Now())
				endEpisode(false)
				return
			}
			period := fo.dispatch(w, eng.Now(), t, bundle)
			inFlight++
			periodEnd := eng.Now() + t
			if periodEnd < reclaimAt {
				eng.At(periodEnd, func() {
					inFlight--
					w.stats.TasksCompleted += len(bundle)
					w.stats.CommittedWork += used
					w.stats.Overhead += cfg.Overhead
					res.TasksCompleted += len(bundle)
					res.CommittedWork += used
					res.OverheadTime += cfg.Overhead
					fo.commit(w, period, eng.Now(), t, used, bundle)
					checkDone()
					if done {
						res.Makespan = eng.Now()
						return
					}
					dispatch()
				})
				return
			}
			// Owner returns mid-period: bundle destroyed and requeued.
			eng.At(reclaimAt, func() {
				inFlight--
				w.stats.TasksLost += len(bundle)
				w.stats.LostWork += used
				res.LostWork += used
				fo.kill(w, period, eng.Now(), t, used, bundle)
				pool.Requeue(bundle)
				wake()
				endEpisode(true)
			})
		}
		dispatch()
	}

	for _, w := range workers {
		busy := 0.0
		if w.spec.BusySampler != nil {
			busy = w.spec.BusySampler(w.src)
		}
		ww := w
		eng.After(busy, func() { startEpisode(ww) })
	}
	eng.Run(maxTime)
	if !res.Drained {
		res.Makespan = math.Min(eng.Now(), maxTime)
	}
	fo.finish(&eng, &res)
	return res, nil
}

type farmWorker struct {
	spec  Worker
	stats *WorkerStats
	src   *rng.Source
	idx   int
}
