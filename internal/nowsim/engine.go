// Package nowsim simulates cycle-stealing in a network of workstations
// — the experimental substrate the paper's model abstracts. It provides:
//
//   - owner models that reclaim workstations at random times whose
//     survival function is a lifefn.Life (or a recorded trace);
//   - episode execution under pluggable chunking policies, with the
//     paper's draconian semantics: a period interrupted by the owner's
//     return loses all its work, and the episode ends (one period is
//     in flight at a time, so an episode is a plain loop);
//   - task-level data parallelism: indivisible tasks of known durations
//     packed into period-sized bundles, with lost bundles re-enqueued;
//   - a Monte-Carlo harness whose mean committed work converges to the
//     analytic E(S; p) of equation (2.1) — the model-validation
//     experiment (E6);
//   - a multi-workstation farm in which a coordinator steals cycles
//     from many owners concurrently (the data-parallel workload the
//     paper's introduction motivates), driven by a discrete-event
//     engine (heap-ordered, deterministic tie-breaking).
package nowsim

import (
	"container/heap"
	"math"
)

// Action is a scheduled event body. It runs when the simulation clock
// reaches its event's time.
type Action func()

type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events
	fn  Action
	// canceled events stay in the heap but do not fire.
	canceled bool
	// gen counts recycles: a Handle cancels only the incarnation it was
	// issued for, so a stale handle to a reused event is a no-op.
	gen uint64
	// next links the engine's free list of fired events.
	next *event
}

// Handle cancels a scheduled event.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op, even after the engine has recycled
// the event for a later scheduling.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.canceled = true
	}
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at < q[j].at {
		return true
	}
	if q[j].at < q[i].at {
		return false
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine is a sequential discrete-event simulation engine. The zero
// value is ready to use with the clock at 0. Fired and canceled events
// are recycled through a free list, so an episode loop that keeps one
// period in flight schedules its thousands of events through a single
// allocation.
type Engine struct {
	queue eventQueue
	now   float64
	seq   uint64
	fired uint64
	// free heads the recycle list of fired/drained events.
	free *event
	// boot backs the queue's first entries, so simulations that never
	// hold more than a handful of pending events never allocate the
	// heap's backing array either.
	boot [8]*event
}

// alloc takes an event from the free list, falling back to the heap.
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return &event{} //lint:allow hotalloc free-list miss: only the high-water mark of in-flight events allocates
}

// recycle returns a fired or drained-canceled event to the free list,
// invalidating outstanding handles via the generation counter.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.canceled = false
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including
// canceled ones not yet drained).
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn at absolute time t (>= Now) and returns a cancel
// handle. Scheduling in the past panics: that is always a simulation
// bug.
func (e *Engine) At(t float64, fn Action) Handle {
	if t < e.now {
		panic("nowsim: scheduling event in the past")
	}
	if e.queue == nil {
		e.queue = e.boot[:0]
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{ev, ev.gen}
}

// After schedules fn delay time units from now.
func (e *Engine) After(delay float64, fn Action) Handle {
	if delay < 0 {
		panic("nowsim: negative delay")
	}
	return e.At(e.now+delay, fn)
}

// Step fires the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		// Recycle before firing so the action's own scheduling reuses
		// this event; its handle is already invalidated.
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// Run fires events until the queue empties or the clock would pass
// until (events at exactly until still fire). Pass +Inf to drain.
func (e *Engine) Run(until float64) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.canceled {
			heap.Pop(&e.queue)
			e.recycle(next)
			continue
		}
		if next.at > until {
			return
		}
		e.Step()
	}
}

// RunAll drains the queue completely.
func (e *Engine) RunAll() { e.Run(math.Inf(1)) }
