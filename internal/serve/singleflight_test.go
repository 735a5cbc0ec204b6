package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// N concurrent callers of the same key must execute the body exactly
// once and all observe its result.
func TestFlightGroupCoalescesSameKey(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	sharedFlags := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, _, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				calls.Add(1)
				<-release // hold the call open so every goroutine joins it
				return 42, nil
			})
			results[i], sharedFlags[i], errs[i] = v, shared, err
		}(i)
	}
	// Let the goroutines join the in-flight call, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("body executed %d times, want exactly 1", got)
	}
	sharedCount := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].(int) != 42 {
			t.Fatalf("caller %d got %v", i, results[i])
		}
		if sharedFlags[i] {
			sharedCount++
		}
	}
	if sharedCount == 0 {
		t.Error("no caller observed the call as shared")
	}
}

// Distinct keys must not serialize behind each other.
func TestFlightGroupDistinctKeysRunIndependently(t *testing.T) {
	g := newFlightGroup()
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_, _, _, _ = g.Do(context.Background(), "slow", func(context.Context) (any, error) {
			<-block
			return nil, nil
		})
		close(done)
	}()
	v, _, _, err := g.Do(context.Background(), "fast", func(context.Context) (any, error) { return 1, nil })
	if err != nil || v.(int) != 1 {
		t.Fatalf("fast key blocked: %v %v", v, err)
	}
	close(block)
	<-done
}

// When every waiter abandons a call, its computation context must be
// cancelled; a waiter that leaves while others remain must not cancel
// it.
func TestFlightGroupCancelsOnlyWhenLastWaiterLeaves(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	runCtxCh := make(chan context.Context, 1)
	finish := make(chan struct{})

	patient := make(chan error, 1)
	go func() {
		_, _, _, err := g.Do(context.Background(), "k", func(runCtx context.Context) (any, error) {
			runCtxCh <- runCtx
			close(started)
			<-finish
			return nil, runCtx.Err()
		})
		patient <- err
	}()
	<-started
	runCtx := <-runCtxCh

	// An impatient waiter joins and leaves.
	impatientCtx, impatientCancel := context.WithCancel(context.Background())
	impatientDone := make(chan error, 1)
	go func() {
		_, _, _, err := g.Do(impatientCtx, "k", func(context.Context) (any, error) {
			t.Error("second Do must join, not re-run")
			return nil, nil
		})
		impatientDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	impatientCancel()
	if err := <-impatientDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter error = %v, want context.Canceled", err)
	}
	if runCtx.Err() != nil {
		t.Fatal("computation cancelled while a waiter remained")
	}

	// Let the patient waiter finish normally.
	close(finish)
	if err := <-patient; err != nil {
		t.Fatalf("patient waiter: %v", err)
	}
}

func TestFlightGroupCancelsWhenAllWaitersLeave(t *testing.T) {
	g := newFlightGroup()
	runCtxCh := make(chan context.Context, 1)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := g.Do(ctx, "k", func(runCtx context.Context) (any, error) {
			runCtxCh <- runCtx
			<-runCtx.Done() // simulate a cancellable computation
			return nil, runCtx.Err()
		})
		errCh <- err
	}()
	runCtx := <-runCtxCh
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	select {
	case <-runCtx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("computation context not cancelled after the last waiter left")
	}
}

// A completed call must leave the group empty so the next Do runs
// fresh.
func TestFlightGroupForgetsCompletedCalls(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		v, shared, _, err := g.Do(context.Background(), "k", func(context.Context) (any, error) {
			return calls.Add(1), nil
		})
		if err != nil || shared {
			t.Fatalf("iteration %d: err=%v shared=%v", i, err, shared)
		}
		if v.(int64) != int64(i+1) {
			t.Fatalf("iteration %d reused a stale result: %v", i, v)
		}
	}
}

// hasWaiters reports whether any call in the group has a waiter.
func (g *flightGroup) hasWaiters() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.m {
		if c.waiters > 0 {
			return true
		}
	}
	return false
}
