package serve

import (
	"context"
	"sync"

	"repro/internal/obs"
)

// flightGroup coalesces concurrent calls that share a key: the first
// caller becomes the leader and runs fn once in its own goroutine;
// everyone (leader included) waits for that one result. The
// computation runs on a context owned by the group, cancelled only
// when every waiter has abandoned the call — one impatient client
// cannot kill a result three other clients still want, but a
// computation nobody is waiting for stops burning a worker.
type flightGroup struct {
	mu sync.Mutex // guards m and every flightCall's waiters/shared
	m  map[string]*flightCall
}

type flightCall struct {
	done    chan struct{} // closed when val/err are set
	val     any
	err     error
	waiters int
	shared  bool // a second waiter ever joined
	cancel  context.CancelFunc
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// Do returns fn's result for key, running fn at most once per key at a
// time. shared reports whether the result (or error) was shared with
// other callers; leader reports whether this caller started the
// computation (followers joined an existing one — their wait is
// coalesce time, not compute time). When ctx ends before the
// computation finishes, Do returns ctx's error; if that caller was the
// last waiter the computation's context is cancelled too.
//
// The follower path (joining an in-flight call) is allocation-free;
// the leader path's allocations are once per computation, amortized
// over every coalesced caller, and carry hotalloc allowances below.
//
//cs:hotpath coalesce
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (v any, shared, leader bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.waiters++
		c.shared = true
		g.mu.Unlock()
		v, shared, err = g.wait(ctx, key, c)
		return v, shared, false, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	// The computation outlives ctx by design, but it still attributes
	// its queue/compute time to the trace of the request that started
	// it. If the leader's request finishes first, the trace is already
	// finalized and late phases are dropped — the attribution
	// invariant (phases <= total) survives leader abandonment.
	runCtx = obs.ContextWithReqTrace(runCtx, obs.ReqTraceFrom(ctx))         //lint:allow hotalloc leader path: trace propagation happens once per computation
	c := &flightCall{done: make(chan struct{}), waiters: 1, cancel: cancel} //lint:allow hotalloc leader path: one call record per computation, shared by all coalesced callers
	g.m[key] = c
	g.mu.Unlock()
	//lint:allow hotalloc leader path: one worker goroutine per computation
	go func() {
		v, err := fn(runCtx)
		g.mu.Lock()
		c.val, c.err = v, err
		if g.m[key] == c {
			delete(g.m, key)
		}
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	v, shared, err = g.wait(ctx, key, c)
	return v, shared, true, err
}

// wait blocks until the call completes or ctx ends. Leaving as the
// last waiter cancels the computation and forgets it, so the next
// caller for key starts afresh instead of inheriting the cancellation
// while the computation winds down.
func (g *flightGroup) wait(ctx context.Context, key string, c *flightCall) (any, bool, error) {
	select {
	case <-c.done:
		return c.val, c.shared, c.err
	case <-ctx.Done():
	}
	// The caller gave up. If the call completed in the meantime,
	// prefer its result — it is already paid for.
	select {
	case <-c.done:
		return c.val, c.shared, c.err
	default:
	}
	g.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	if last && g.m[key] == c {
		delete(g.m, key)
	}
	shared := c.shared
	g.mu.Unlock()
	if last {
		c.cancel()
	}
	return nil, shared, ctx.Err()
}
