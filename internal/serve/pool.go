package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrQueueFull reports that the pool's bounded queue rejected a
// submission. Handlers map it to 429 Too Many Requests with a
// Retry-After hint: under overload the service sheds load at the door
// instead of queueing unboundedly and timing everyone out.
var ErrQueueFull = errors.New("serve: worker queue full")

// ErrPoolClosed reports a submission to a draining or closed pool.
var ErrPoolClosed = errors.New("serve: pool closed")

// Pool is a fixed-size worker pool with a bounded queue. Submissions
// never block: a full queue fails fast with ErrQueueFull. A task whose
// context has already ended by the time a worker picks it up is
// skipped entirely, so a burst of abandoned requests cannot occupy the
// workers.
type Pool struct {
	mu     sync.RWMutex // guards closed vs. sends on tasks
	closed bool
	tasks  chan *poolTask
	wg     sync.WaitGroup

	depth   *obs.Gauge        // queued + running tasks; nil-safe
	skipped *obs.Counter      // tasks whose ctx ended before a worker ran them
	wait    *obs.QuantileHist // queue wait (submission -> worker pickup) in ms; nil-safe
}

type poolTask struct {
	ctx  context.Context
	fn   func(context.Context)
	enq  time.Time     // submission time, for queue-wait attribution
	rt   *obs.ReqTrace // the submitting request's trace; nil when untraced
	ran  bool          // set by the worker before done closes; read by Do only after <-done
	done chan struct{}
}

// NewPool starts workers goroutines servicing a queue of the given
// capacity. workers <= 0 defaults to 1; queue < 0 defaults to 0 (only
// hand-off, no buffering). depth, skipped and wait may be nil.
func NewPool(workers, queue int, depth *obs.Gauge, skipped *obs.Counter, wait *obs.QuantileHist) *Pool {
	if workers <= 0 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan *poolTask, queue), depth: depth, skipped: skipped, wait: wait}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		if t.ctx.Err() == nil {
			// Attribute the time the task spent queued — both to the
			// pool-wide histogram and to the owning request's trace.
			waited := time.Since(t.enq)
			if p.wait != nil {
				p.wait.Observe(float64(waited) / float64(time.Millisecond))
			}
			t.rt.AddPhase(obs.PhaseQueue, t.enq, waited)
			t.fn(t.ctx)
			t.ran = true
		} else if p.skipped != nil {
			p.skipped.Inc()
		}
		if p.depth != nil {
			p.depth.Add(-1)
		}
		close(t.done)
	}
}

// Do submits fn and waits until a worker has finished running it or
// ctx ends, whichever comes first. Do returns nil only when fn has
// actually run to completion: a task skipped because its context ended
// while queued reports the context error, never success. fn receives
// ctx and is expected to honour its cancellation (the Monte-Carlo
// runner checks it between episodes). When Do returns ctx.Err() the
// task may still be queued —
// the worker that eventually dequeues it sees the dead context and
// skips it, keeping the pool usable after any number of abandoned
// requests.
func (p *Pool) Do(ctx context.Context, fn func(context.Context)) error {
	t := &poolTask{ctx: ctx, fn: fn, enq: time.Now(), rt: obs.ReqTraceFrom(ctx), done: make(chan struct{})}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrPoolClosed
	}
	// Count the task before it becomes visible to workers so the gauge
	// never dips negative when a worker dequeues and decrements first.
	if p.depth != nil {
		p.depth.Add(1)
	}
	select {
	case p.tasks <- t:
	default:
		if p.depth != nil {
			p.depth.Add(-1)
		}
		p.mu.RUnlock()
		return ErrQueueFull
	}
	p.mu.RUnlock()
	select {
	case <-t.done:
		if !t.ran {
			// The worker skipped the task because ctx had already ended.
			// When done and ctx.Done() are both ready this branch can
			// still win the select, so report the (sticky) context error
			// rather than claiming fn ran.
			return ctx.Err()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueueDepth returns the number of tasks currently queued (excluding
// ones a worker has already dequeued).
func (p *Pool) QueueDepth() int { return len(p.tasks) }

// QueueCap returns the queue capacity.
func (p *Pool) QueueCap() int { return cap(p.tasks) }

// Close drains the pool: it stops accepting submissions, lets the
// workers finish every task already queued, and returns when they have
// exited. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
