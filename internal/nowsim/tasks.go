package nowsim

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
)

// Task is one indivisible unit of a data-parallel computation. Its
// duration is known perfectly (a model assumption) and includes the
// marginal cost of shipping its input and output, so the per-period
// overhead c stays independent of bundle sizes.
type Task struct {
	ID       int
	Duration float64
}

// TaskPool holds the outstanding tasks of a data-parallel job. Tasks
// whose period is interrupted return to the pool (their results were
// destroyed) and will be re-dispatched. The zero value is an empty
// pool.
type TaskPool struct {
	queue []Task
}

// NewUniformTasks returns a pool of n tasks of identical duration d.
func NewUniformTasks(n int, d float64) (*TaskPool, error) {
	if n < 0 || d <= 0 {
		return nil, fmt.Errorf("nowsim: invalid task pool (n=%d, d=%g)", n, d)
	}
	p := &TaskPool{}
	for i := 0; i < n; i++ {
		p.Push(Task{ID: i, Duration: d})
	}
	return p, nil
}

// NewRandomTasks returns a pool of n tasks with durations drawn
// uniformly from [lo, hi) using src.
func NewRandomTasks(n int, lo, hi float64, src *rng.Source) (*TaskPool, error) {
	if n < 0 || !(lo > 0) || !(hi >= lo) {
		return nil, fmt.Errorf("nowsim: invalid random task pool (n=%d, [%g, %g))", n, lo, hi)
	}
	p := &TaskPool{}
	for i := 0; i < n; i++ {
		p.Push(Task{ID: i, Duration: src.Uniform(lo, hi)})
	}
	return p, nil
}

// Push enqueues a task.
func (p *TaskPool) Push(t Task) {
	p.queue = append(p.queue, t)
}

// Remaining returns the number of outstanding tasks.
func (p *TaskPool) Remaining() int { return len(p.queue) }

// TakeBundle removes tasks from the front of the queue whose durations
// fit within budget and returns them with their total duration. Tasks
// are indivisible: the first task that does not fit stays queued, and
// packing stops there (FIFO semantics keep the simulation deterministic
// and fair). An empty bundle means no queued task fits.
func (p *TaskPool) TakeBundle(budget float64) ([]Task, float64) {
	var bundle []Task
	used := 0.0
	for len(p.queue) > 0 {
		t := p.queue[0]
		if used+t.Duration > budget+1e-12 {
			break
		}
		bundle = append(bundle, t)
		used += t.Duration
		p.queue = p.queue[1:]
	}
	return bundle, used
}

// Clone returns an independent copy of the pool's outstanding queue.
// Monte-Carlo experiments use it to replay the same workload across
// replications without paying workload generation each time.
func (p *TaskPool) Clone() *TaskPool {
	return &TaskPool{queue: append([]Task(nil), p.queue...)}
}

// Requeue returns a lost bundle to the front of the queue: its results
// were destroyed with the interrupted period and the tasks must run
// again.
func (p *TaskPool) Requeue(bundle []Task) {
	if len(bundle) == 0 {
		return
	}
	p.queue = append(append([]Task(nil), bundle...), p.queue...)
}

// TaskEpisodeResult is the outcome of a task-level episode.
type TaskEpisodeResult struct {
	EpisodeResult
	// TasksCompleted counts tasks whose results were committed.
	TasksCompleted int
	// TasksLost counts task executions destroyed by reclamation
	// (the tasks themselves return to the pool).
	TasksLost int
	// Slack is the dispatched-but-unfilled work capacity: period work
	// budgets that indivisible tasks could not pack exactly.
	Slack float64
}

// TaskEpisodeOptions tunes task-level episode execution.
type TaskEpisodeOptions struct {
	// BestFit packs each bundle best-fit-decreasing over a lookahead
	// window the pool sizes from the budget (TakeBundleBestFit with an
	// automatic window) instead of plain FIFO packing.
	BestFit bool
}

// RunTaskEpisode plays one episode like RunEpisode but dispatches real
// indivisible tasks from pool: each period of length t carries a bundle
// packing at most t-c task time. Periods whose bundle would be empty
// are not dispatched (the episode ends voluntarily: no work fits). Lost
// bundles are re-enqueued.
func RunTaskEpisode(policy Policy, pool *TaskPool, c, reclaim float64) TaskEpisodeResult {
	return RunTaskEpisodeOpt(policy, pool, c, reclaim, TaskEpisodeOptions{})
}

// RunTaskEpisodeOpt is RunTaskEpisode with packing options. It is the
// same period loop as RunEpisode, with bundle packing, commit and
// requeue inline.
func RunTaskEpisodeOpt(policy Policy, pool *TaskPool, c, reclaim float64, opt TaskEpisodeOptions) TaskEpisodeResult {
	if c < 0 {
		panic(fmt.Sprintf("nowsim: negative overhead %g", c))
	}
	policy.Reset()
	var res TaskEpisodeResult
	now := 0.0
	for {
		t, ok := policy.NextPeriod(now)
		if !ok || t <= c {
			res.Duration = now
			return res
		}
		budget := sched.PositiveSub(t, c)
		var (
			bundle []Task
			used   float64
		)
		if opt.BestFit {
			bundle, used = pool.TakeBundleBestFit(budget, 0) // auto window
		} else {
			bundle, used = pool.TakeBundle(budget)
		}
		if len(bundle) == 0 {
			res.Duration = now
			return res
		}
		res.PeriodsDispatched++
		res.Slack += budget - used
		// The period occupies the full scheduled length t (the
		// coordinator reserved that window) even if the bundle packs
		// less than t-c of task time.
		if periodEnd := now + t; periodEnd < reclaim {
			res.PeriodsCommitted++
			res.Work += used
			res.Overhead += c
			res.TasksCompleted += len(bundle)
			now = periodEnd
			continue
		}
		res.Lost += used
		res.TasksLost += len(bundle)
		pool.Requeue(bundle)
		if reclaim >= 0 && reclaim < 1e300 {
			res.Reclaimed = true
			res.Duration = reclaim
		} else {
			res.Duration = now
		}
		return res
	}
}
