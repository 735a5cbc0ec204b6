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

import "container/heap"

// Action is a scheduled event body. It runs when the simulation clock
// reaches its event's time.
type Action func()

type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events
	fn  Action
	// next links the engine's free list of fired events.
	next *event
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
// value is ready to use with the clock at 0. Fired events are recycled
// through a free list, so an episode loop that keeps one period in
// flight schedules its thousands of events through a single allocation.
type Engine struct {
	queue eventQueue
	now   float64
	seq   uint64
	fired uint64
	// free heads the recycle list of fired events.
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

// recycle returns a fired event to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.next = e.free
	e.free = ev
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn at absolute time t (>= Now). Scheduling in the past
// panics: that is always a simulation bug.
func (e *Engine) At(t float64, fn Action) {
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
}

// After schedules fn delay time units from now.
func (e *Engine) After(delay float64, fn Action) {
	if delay < 0 {
		panic("nowsim: negative delay")
	}
	e.At(e.now+delay, fn)
}

// Step fires the next event. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	e.fired++
	fn := ev.fn
	// Recycle before firing so the action's own scheduling reuses this
	// event.
	e.recycle(ev)
	fn()
	return true
}

// Run fires events until the queue empties or the clock would pass
// until (events at exactly until still fire). Pass +Inf to drain.
func (e *Engine) Run(until float64) {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
}
