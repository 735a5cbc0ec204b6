package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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

// Pool is an admission semaphore: at most workers calls run at once,
// at most queue more wait for a slot, and a call beyond that fails
// fast with ErrQueueFull. fn runs on the caller's goroutine — the
// pool hands nothing to other goroutines. A call whose context ends
// before it gets a slot never runs fn, so a burst of abandoned
// requests cannot occupy the slots.
type Pool struct {
	slots chan struct{} // one token per running fn; capacity = workers
	queue int           // calls that may wait beyond the slots

	mu       sync.Mutex // guards closed and admitted
	closed   bool
	admitted int            // calls inside Do: waiting + running
	waiting  atomic.Int64   // admitted calls without a slot yet
	calls    sync.WaitGroup // admitted calls, awaited by Close

	depth   *obs.Gauge        // waiting + running calls
	skipped *obs.Counter      // calls whose ctx ended before they got a slot
	wait    *obs.QuantileHist // queue wait (admission -> slot) in ms
}

// NewPool returns a pool that runs at most workers calls at once and
// queues at most queue more. workers <= 0 defaults to 1; queue < 0
// means 0 (admit only while a slot is free). depth, skipped and wait
// may be nil.
func NewPool(workers, queue int, depth *obs.Gauge, skipped *obs.Counter, wait *obs.QuantileHist) *Pool {
	if workers <= 0 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Pool{slots: make(chan struct{}, workers), queue: queue, depth: depth, skipped: skipped, wait: wait}
}

// Do admits the call, waits for a slot, runs fn(ctx) on the calling
// goroutine and returns once fn has returned. It fails at once with
// ErrQueueFull when workers + queue calls are already admitted, and
// with ErrPoolClosed after Close. When ctx ends before a slot frees up
// Do returns ctx.Err() without calling fn; nil means fn returned. fn is
// expected to honour ctx (the Monte-Carlo runner checks it between
// episodes); one that ignores it keeps its slot until it returns.
func (p *Pool) Do(ctx context.Context, fn func(context.Context)) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	if p.admitted >= cap(p.slots)+p.queue {
		p.mu.Unlock()
		return ErrQueueFull
	}
	p.admitted++
	p.calls.Add(1)
	p.mu.Unlock()
	if p.depth != nil {
		p.depth.Add(1)
	}

	admitted := time.Now()
	p.waiting.Add(1)
	var err error
	select {
	case p.slots <- struct{}{}:
		p.waiting.Add(-1)
		// A free slot and an ended ctx can be ready together, and the
		// select picks either: check ctx before running fn.
		if err = ctx.Err(); err == nil {
			waited := time.Since(admitted)
			if p.wait != nil {
				p.wait.Observe(float64(waited) / float64(time.Millisecond))
			}
			obs.ReqTraceFrom(ctx).AddPhase(obs.PhaseQueue, admitted, waited)
			fn(ctx)
		}
		<-p.slots
	case <-ctx.Done():
		p.waiting.Add(-1)
		err = ctx.Err()
	}
	if err != nil && p.skipped != nil {
		p.skipped.Inc()
	}

	p.mu.Lock()
	p.admitted--
	p.mu.Unlock()
	if p.depth != nil {
		p.depth.Add(-1)
	}
	p.calls.Done()
	return err
}

// QueueDepth returns the number of admitted calls still waiting for a
// slot (excluding running ones).
func (p *Pool) QueueDepth() int { return int(p.waiting.Load()) }

// QueueCap returns the queue capacity.
func (p *Pool) QueueCap() int { return p.queue }

// Close drains the pool: it refuses new calls and returns once every
// admitted call has returned, so queued calls still run. Safe to call
// more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.calls.Wait()
}
