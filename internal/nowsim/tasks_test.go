package nowsim

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
)

// remainingWork returns the total duration of p's outstanding tasks.
func remainingWork(p *TaskPool) float64 {
	w := 0.0
	for _, t := range p.queue {
		w += t.Duration
	}
	return w
}

func TestTaskPoolBasics(t *testing.T) {
	p, err := NewUniformTasks(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Remaining() != 10 || remainingWork(p) != 20 {
		t.Errorf("remaining %d/%g", p.Remaining(), remainingWork(p))
	}
	bundle, used := p.TakeBundle(5)
	if len(bundle) != 2 || used != 4 {
		t.Errorf("bundle %d tasks, %g work", len(bundle), used)
	}
	if p.Remaining() != 8 {
		t.Errorf("remaining = %d", p.Remaining())
	}
}

func TestTaskPoolRequeuePreservesOrder(t *testing.T) {
	p, _ := NewUniformTasks(4, 1)
	bundle, _ := p.TakeBundle(2) // tasks 0, 1
	p.Requeue(bundle)
	next, _ := p.TakeBundle(1)
	if len(next) != 1 || next[0].ID != 0 {
		t.Errorf("requeued task not at front: %+v", next)
	}
	if math.Abs(remainingWork(p)-3) > 1e-12 {
		t.Errorf("remaining work = %g", remainingWork(p))
	}
}

func TestTakeBundleIndivisible(t *testing.T) {
	p := &TaskPool{}
	p.Push(Task{ID: 0, Duration: 3})
	p.Push(Task{ID: 1, Duration: 3})
	bundle, used := p.TakeBundle(4)
	if len(bundle) != 1 || used != 3 {
		t.Errorf("bundle %v used %g; tasks must not split", bundle, used)
	}
	// Nothing fits in a tiny budget.
	empty, _ := p.TakeBundle(1)
	if len(empty) != 0 {
		t.Error("bundle packed beyond budget")
	}
}

func TestNewRandomTasks(t *testing.T) {
	src := rng.New(3)
	p, err := NewRandomTasks(100, 1, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Remaining() != 100 {
		t.Fatal("wrong count")
	}
	for _, task := range p.queue {
		if task.Duration < 1 || task.Duration >= 2 {
			t.Fatalf("duration %g outside [1, 2)", task.Duration)
		}
	}
	if _, err := NewRandomTasks(-1, 1, 2, src); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := NewUniformTasks(5, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

// packings runs each task-episode case under FIFO and best-fit packing:
// on uniform tasks the two must agree.
var packings = []TaskEpisodeOptions{{}, {BestFit: true}}

func TestRunTaskEpisodeQuantization(t *testing.T) {
	// Period 10, c=1 → budget 9; tasks of 4 pack 2 per bundle (slack 1).
	for _, opt := range packings {
		pool, _ := NewUniformTasks(10, 4)
		s := sched.MustNew(10, 10)
		res := RunTaskEpisodeOpt(NewSchedulePolicy(s, ""), pool, 1, 1000, opt)
		if res.TasksCompleted != 4 {
			t.Errorf("%+v: completed %d tasks, want 4", opt, res.TasksCompleted)
		}
		if math.Abs(res.Work-16) > 1e-12 {
			t.Errorf("%+v: work = %g, want 16", opt, res.Work)
		}
		if math.Abs(res.Slack-2) > 1e-12 {
			t.Errorf("%+v: slack = %g, want 2", opt, res.Slack)
		}
		if pool.Remaining() != 6 {
			t.Errorf("%+v: remaining = %d", opt, pool.Remaining())
		}
	}
}

func TestRunTaskEpisodeLostBundleRequeued(t *testing.T) {
	for _, opt := range packings {
		pool, _ := NewUniformTasks(4, 2)
		s := sched.MustNew(5, 5) // second period killed at reclaim 7
		res := RunTaskEpisodeOpt(NewSchedulePolicy(s, ""), pool, 1, 7, opt)
		if res.TasksCompleted != 2 || res.TasksLost != 2 {
			t.Errorf("%+v: completed/lost = %d/%d", opt, res.TasksCompleted, res.TasksLost)
		}
		// Lost tasks must be back in the pool.
		if pool.Remaining() != 2 {
			t.Errorf("%+v: remaining = %d, want 2 (requeued)", opt, pool.Remaining())
		}
		if res.Work != 4 || res.Lost != 4 {
			t.Errorf("%+v: work/lost = %g/%g", opt, res.Work, res.Lost)
		}
		if !res.Reclaimed || res.Duration != 7 {
			t.Errorf("%+v: reclaimed=%v duration=%g", opt, res.Reclaimed, res.Duration)
		}
	}
}

func TestRunTaskEpisodeStopsWhenNothingFits(t *testing.T) {
	for _, opt := range packings {
		pool, _ := NewUniformTasks(2, 50)
		s := sched.MustNew(10, 10)
		res := RunTaskEpisodeOpt(NewSchedulePolicy(s, ""), pool, 1, 1000, opt)
		if res.PeriodsDispatched != 0 {
			t.Errorf("%+v: dispatched %d periods with oversized tasks", opt, res.PeriodsDispatched)
		}
		if res.Reclaimed {
			t.Errorf("%+v: voluntary stop misreported as reclaim", opt)
		}
	}
}

func TestRunTaskEpisodeBestFitPacksTighter(t *testing.T) {
	// Budget 6 over the queue (3, 5, 1): FIFO stops at the 5 and ships
	// 3; best fit ships 5+1 and leaves the 3 queued.
	for _, opt := range packings {
		pool := &TaskPool{}
		for i, d := range []float64{3, 5, 1} {
			pool.Push(Task{ID: i, Duration: d})
		}
		res := RunTaskEpisodeOpt(NewSchedulePolicy(sched.MustNew(7), ""), pool, 1, 100, opt)
		want := 3.0
		if opt.BestFit {
			want = 6
		}
		//lint:allow floatcmp integer durations pack and sum exactly
		if res.Work != want || remainingWork(pool) != 9-want {
			t.Errorf("%+v: work %g, remaining %g; want %g, %g", opt, res.Work, remainingWork(pool), want, 9-want)
		}
	}
}

// tightPolicy emits a fixed period barely above the overhead, driving
// every dispatch budget through the t ⊖ c clamp near its boundary.
type tightPolicy struct{ t float64 }

func (p tightPolicy) NextPeriod(float64) (float64, bool) { return p.t, true }
func (p tightPolicy) Reset()                             {}
func (p tightPolicy) String() string                     { return "tight" }

func TestRunTaskEpisodeTightPeriodBudgetClamped(t *testing.T) {
	const c = 1.0
	pool, err := NewUniformTasks(8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	res := RunTaskEpisode(tightPolicy{t: c + 0.25}, pool, c, math.Inf(1))
	// Each period's budget is exactly t ⊖ c = 0.25: one task per
	// dispatch, zero slack, and the pool drains before the episode ends
	// voluntarily. A budget that went negative (or picked up rounding
	// noise) would dispatch nothing or leak slack.
	if res.TasksCompleted != 8 {
		t.Errorf("completed %d tasks, want 8", res.TasksCompleted)
	}
	if res.PeriodsDispatched != 8 {
		t.Errorf("dispatched %d periods, want 8", res.PeriodsDispatched)
	}
	if res.Slack != 0 {
		t.Errorf("slack = %g, want 0", res.Slack)
	}
	if pool.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", pool.Remaining())
	}
}

func TestTaskPoolCloneIsIndependent(t *testing.T) {
	p, err := NewUniformTasks(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	bundle, _ := c.TakeBundle(2)
	if c.Remaining() != 2 || p.Remaining() != 4 {
		t.Errorf("after taking from the clone: clone %d, original %d; want 2, 4", c.Remaining(), p.Remaining())
	}
	p.Requeue(bundle)
	if c.Remaining() != 2 || p.Remaining() != 6 {
		t.Errorf("after requeueing into the original: clone %d, original %d; want 2, 6", c.Remaining(), p.Remaining())
	}
	if next, _ := c.TakeBundle(1); len(next) != 1 || next[0].ID != 2 {
		t.Errorf("clone's next task = %+v, want ID 2", next)
	}
}
