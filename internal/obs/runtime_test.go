package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"
)

func TestRuntimeBridgeNilSafe(t *testing.T) {
	var b *RuntimeBridge
	b.Start()
	b.SampleNow()
	b.Stop()
	if b.LeakSuspected() {
		t.Errorf("nil bridge suspects a leak")
	}
}

func TestRuntimeBridgePublishesSeries(t *testing.T) {
	reg := NewRegistry()
	b := NewRuntimeBridge(reg, RuntimeBridgeConfig{})
	b.SampleNow()
	runtime.GC() // guarantee at least one completed cycle between samples
	b.SampleNow()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"cs_runtime_goroutines ",
		"cs_runtime_heap_live_bytes ",
		"cs_runtime_heap_goal_bytes ",
		"cs_runtime_mem_total_bytes ",
		"cs_runtime_gc_cycles_total ",
		"cs_runtime_alloc_objects_total ",
		"cs_runtime_alloc_bytes_total ",
		`cs_runtime_gc_pause_ms{quantile="0.99"}`,
		`cs_runtime_sched_latency_ms{quantile="0.5"}`,
		"cs_runtime_goroutine_limit ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if b.goroutines.Value() < 1 {
		t.Errorf("goroutine gauge = %v, want >= 1", b.goroutines.Value())
	}
	if b.heapLive.Value() <= 0 {
		t.Errorf("heap live gauge = %v, want > 0", b.heapLive.Value())
	}
	// The forced GC between the two samples must surface as a counter
	// delta, proving cumulative runtime counters publish monotonically.
	if got := b.gcCycles.Value(); got < 1 {
		t.Errorf("gc cycles counter = %d, want >= 1", got)
	}
	if got := b.allocObjs.Value(); got == 0 {
		t.Errorf("alloc objects counter = 0, want > 0")
	}
}

func TestRuntimeBridgeStartStop(t *testing.T) {
	reg := NewRegistry()
	b := NewRuntimeBridge(reg, RuntimeBridgeConfig{Interval: time.Millisecond})
	b.Start()
	b.Start() // second Start is a no-op, not a second goroutine
	// The immediate sample inside Start populates the gauges without
	// waiting a tick.
	if b.goroutines.Value() < 1 {
		t.Errorf("no immediate sample on Start: goroutines = %v", b.goroutines.Value())
	}
	b.Stop()
	b.Stop() // idempotent
}

func TestRuntimeBridgeWatchdog(t *testing.T) {
	reg := NewRegistry()
	b := NewRuntimeBridge(reg, RuntimeBridgeConfig{LeakLimit: 10})

	b.watchdogLocked(50)
	b.watchdogLocked(50)
	if b.LeakSuspected() {
		t.Fatalf("two samples over the limit already flagged")
	}
	b.watchdogLocked(50)
	if !b.LeakSuspected() {
		t.Fatalf("three consecutive samples over the limit not flagged")
	}
	if got := b.leakEvents.Value(); got != 1 {
		t.Errorf("leak events = %d, want 1", got)
	}
	// Recovery clears the flag and resets the streak.
	b.watchdogLocked(5)
	if b.LeakSuspected() {
		t.Fatalf("flag not cleared after a healthy sample")
	}
	b.watchdogLocked(50)
	b.watchdogLocked(50)
	if b.LeakSuspected() {
		t.Fatalf("streak not reset: two post-recovery samples flagged")
	}
	b.watchdogLocked(50)
	if !b.LeakSuspected() || b.leakEvents.Value() != 2 {
		t.Errorf("second leak episode not counted: suspected=%v events=%d",
			b.LeakSuspected(), b.leakEvents.Value())
	}
}

func TestRuntimeBridgeWatchdogDerivesLimit(t *testing.T) {
	reg := NewRegistry()
	b := NewRuntimeBridge(reg, RuntimeBridgeConfig{})
	b.watchdogLocked(4)
	if b.leakLimit != 128 {
		t.Errorf("derived limit = %d, want the 128 floor", b.leakLimit)
	}
	b2 := NewRuntimeBridge(NewRegistry(), RuntimeBridgeConfig{})
	b2.watchdogLocked(100)
	if b2.leakLimit != 800 {
		t.Errorf("derived limit = %d, want 8x first sample", b2.leakLimit)
	}
}

func TestHistQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{1, 1, 2},
		Buckets: []float64{0, 1, 2, 4},
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1},    // rank clamps to 1 -> first bucket's upper bound
		{0.25, 1}, // rank 1
		{0.5, 2},  // rank 2 -> second bucket
		{1, 4},    // rank 4 -> last bucket
	} {
		//lint:allow floatcmp quantiles resolve to exact bucket boundaries
		if got := histQuantile(h, tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
	// Unbounded top bucket falls back to its finite lower bound.
	inf := &metrics.Float64Histogram{
		Counts:  []uint64{1},
		Buckets: []float64{8, math.Inf(1)},
	}
	if got := histQuantile(inf, 1); got != 8 {
		t.Errorf("+Inf bucket: got %v, want lower bound 8", got)
	}
	empty := &metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}
	if got := histQuantile(empty, 0.5); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
}

func TestReadRuntimeHealth(t *testing.T) {
	runtime.GC()
	h := ReadRuntimeHealth()
	if h.GCCycles < 1 {
		t.Errorf("gc_cycles = %d, want >= 1 after a forced GC", h.GCCycles)
	}
	if h.GCPauseTotalMS <= 0 {
		t.Errorf("gc_pause_total_ms = %v, want > 0", h.GCPauseTotalMS)
	}
	if h.HeapAllocBytes == 0 || h.HeapSysBytes == 0 || h.NextGCBytes == 0 {
		t.Errorf("heap numbers zero: %+v", h)
	}
	if h.NumGoroutine < 1 {
		t.Errorf("num_goroutine = %d", h.NumGoroutine)
	}
	if h.GoroutineLeakSuspected {
		t.Errorf("leak suspected without a bridge")
	}
}
