package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// Admission is exact: 20 concurrent calls fit 2 slots plus 18 queue
// places, so none is rejected.
func TestPoolRunsSubmittedWork(t *testing.T) {
	p := NewPool(2, 18, nil, nil, nil)
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func(context.Context) { ran.Add(1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 20 {
		t.Errorf("ran = %d, want 20", got)
	}
}

// A full queue must reject immediately with ErrQueueFull, not block.
func TestPoolBackpressure(t *testing.T) {
	p := NewPool(1, 1, nil, nil, nil)
	defer p.Close()
	block := make(chan struct{})
	occupied := make(chan struct{})
	go func() {
		_ = p.Do(context.Background(), func(context.Context) {
			close(occupied)
			<-block
		})
	}()
	<-occupied
	// Fill the one queue place and wait until the call is really waiting
	// (the slot is held, so the depth cannot drop again).
	queued := make(chan error, 1)
	go func() {
		queued <- p.Do(context.Background(), func(context.Context) {})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler call never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Do(context.Background(), func(context.Context) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do on a full queue = %v, want ErrQueueFull", err)
	}
	close(block)
	if err := <-queued; err != nil {
		t.Fatalf("queued task failed: %v", err)
	}
}

// A request abandoned by deadline — while queued or while running —
// must leave the pool fully usable.
func TestPoolDeadlineLeavesPoolUsable(t *testing.T) {
	reg := obs.NewRegistry()
	skipped := reg.Counter("skipped", "")
	p := NewPool(1, 4, reg.Gauge("depth", ""), skipped, nil)
	defer p.Close()

	block := make(chan struct{})
	occupied := make(chan struct{})
	go func() {
		_ = p.Do(context.Background(), func(context.Context) {
			close(occupied)
			<-block
		})
	}()
	<-occupied

	// Queue a task, then abandon it before any worker is free.
	ctx, cancel := context.WithCancel(context.Background())
	var abandonedRan atomic.Bool
	errCh := make(chan error, 1)
	go func() {
		errCh <- p.Do(ctx, func(context.Context) { abandonedRan.Store(true) })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do = %v, want context.Canceled", err)
	}

	// Release the worker; the dead task must be skipped, and new work
	// must still run.
	close(block)
	var ran atomic.Bool
	if err := p.Do(context.Background(), func(context.Context) { ran.Store(true) }); err != nil {
		t.Fatalf("pool unusable after abandoned request: %v", err)
	}
	if !ran.Load() {
		t.Error("follow-up task did not run")
	}
	if abandonedRan.Load() {
		t.Error("abandoned task ran anyway")
	}
	if skipped.Value() != 1 {
		t.Errorf("skipped = %d, want 1", skipped.Value())
	}
}

// A task whose context is already dead when the worker dequeues it must
// never be reported as success: the worker closes done without running
// fn, and when done and ctx.Done() are both ready Do's select picks
// randomly — the done branch has to notice fn never ran. (The old code
// returned nil here roughly half the time, which let handlers cache
// zero-valued responses.)
func TestPoolSkippedTaskNeverReportsSuccess(t *testing.T) {
	p := NewPool(1, 256, nil, nil, nil)
	defer p.Close()
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Bool
		err := p.Do(ctx, func(context.Context) { ran.Store(true) })
		if ran.Load() {
			t.Fatal("fn ran despite a pre-cancelled context")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do with a pre-cancelled ctx = %v, want context.Canceled", err)
		}
	}
}

// Close must drain queued work before returning, and reject later
// submissions with ErrPoolClosed.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(1, 8, nil, nil, nil)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Do(context.Background(), func(context.Context) {
				time.Sleep(2 * time.Millisecond)
				ran.Add(1)
			})
		}()
	}
	wg.Wait() // every Do returned, so every task ran
	p.Close()
	if got := ran.Load(); got != 6 {
		t.Errorf("ran = %d before Close returned, want 6", got)
	}
	if err := p.Do(context.Background(), func(context.Context) {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Do after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// Close refuses new calls at once but returns only after every admitted
// call — running or still queued — has returned.
func TestPoolCloseWaitsForAdmittedCalls(t *testing.T) {
	p := NewPool(1, 1, nil, nil, nil)
	block := make(chan struct{})
	occupied := make(chan struct{})
	var ran atomic.Int64
	errs := make(chan error, 2)
	go func() {
		errs <- p.Do(context.Background(), func(context.Context) {
			close(occupied)
			<-block
			ran.Add(1)
		})
	}()
	<-occupied
	go func() {
		errs <- p.Do(context.Background(), func(context.Context) { ran.Add(1) })
	}()
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second call never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	deadline = time.Now().Add(2 * time.Second)
	for !errors.Is(p.Do(context.Background(), func(context.Context) {}), ErrPoolClosed) {
		if time.Now().After(deadline) {
			t.Fatal("Do during Close never answered ErrPoolClosed")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while admitted calls were still inside Do")
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	<-closed
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted call failed: %v", err)
		}
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("ran = %d when Close returned, want 2", got)
	}
}
