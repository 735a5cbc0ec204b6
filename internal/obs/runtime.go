package obs

// Runtime/resource observability: a bridge from the Go runtime's
// runtime/metrics stream into the atomic registry, plus a goroutine
// leak watchdog. The planner only pays off if it costs less than the
// cycles it steals (ROADMAP item 2); this file is where the process's
// own resource consumption — GC pauses, heap residency, allocation
// throughput, scheduler latency, goroutine population — becomes
// scrapeable through the same Prometheus/OpenMetrics exposition the
// serving metrics use.
//
// The bridge samples on a configurable ticker; every sample is a
// single runtime/metrics.Read over a fixed sample set (no allocation
// after construction) fanned out into gauges, delta-counters and
// quantile gauges. Histogram-valued runtime metrics (GC pause, STW
// scheduler latency) are cumulative since process start, so their
// quantiles describe the whole life of the process — exactly the right
// shape for "has this process ever stalled", and cheap to compute.

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime metric names sampled by the bridge, in sample-slice order.
const (
	rmGoroutines   = "/sched/goroutines:goroutines"
	rmHeapLive     = "/memory/classes/heap/objects:bytes"
	rmHeapGoal     = "/gc/heap/goal:bytes"
	rmMemTotal     = "/memory/classes/total:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCPauses     = "/sched/pauses/total/gc:seconds"
	rmSchedLat     = "/sched/latencies:seconds"
)

// RuntimeBridgeConfig tunes the bridge. Zero values select defaults in
// parentheses.
type RuntimeBridgeConfig struct {
	// Interval between samples (10s).
	Interval time.Duration
	// LeakLimit is the goroutine count treated as a suspected leak. 0
	// derives it from the first sample: max(128, 8x the count then).
	LeakLimit int
	// LeakConsecutive is how many consecutive samples must exceed
	// LeakLimit before the watchdog flags a leak (3) — a one-sample
	// burst of request handlers is not a leak.
	LeakConsecutive int
}

func (c RuntimeBridgeConfig) withDefaults() RuntimeBridgeConfig {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.LeakConsecutive <= 0 {
		c.LeakConsecutive = 3
	}
	return c
}

// RuntimeBridge periodically samples the Go runtime into a Registry.
// Create with NewRuntimeBridge, start the ticker with Start, stop it
// with Stop; SampleNow takes one synchronous sample (Start's ticker
// does the same thing). A nil *RuntimeBridge is inert.
type RuntimeBridge struct {
	cfg RuntimeBridgeConfig
	reg *Registry

	samples []metrics.Sample // fixed set, reused every tick
	idx     map[string]int   // name -> index in samples

	goroutines *Gauge
	heapLive   *Gauge
	heapGoal   *Gauge
	memTotal   *Gauge
	gcCycles   *Counter
	allocObjs  *Counter
	allocBytes *Counter
	gcPauseQ   []*Gauge // cs_runtime_gc_pause_ms{quantile=...}
	schedLatQ  []*Gauge // cs_runtime_sched_latency_ms{quantile=...}

	// Delta state for the cumulative runtime counters.
	lastGCCycles   uint64
	lastAllocObjs  uint64
	lastAllocBytes uint64

	// Watchdog state.
	leakLimit     int
	leakStreak    int
	leakSuspected atomic.Bool
	leakGauge     *Gauge
	leakLimitG    *Gauge
	leakEvents    *Counter

	mu      sync.Mutex // guards samples + delta/watchdog state across SampleNow callers
	stop    chan struct{}
	stopped sync.Once
	started atomic.Bool
}

// runtimeQuantiles are the exposed quantiles for histogram-valued
// runtime metrics; "1" is the observed maximum.
var runtimeQuantiles = []float64{0.5, 0.9, 0.99, 1}

var runtimeQuantileLabels = []string{"0.5", "0.9", "0.99", "1"}

// NewRuntimeBridge registers the bridge's metric set on reg and
// returns a bridge ready to Start (or to drive manually via
// SampleNow). reg must be non-nil.
func NewRuntimeBridge(reg *Registry, cfg RuntimeBridgeConfig) *RuntimeBridge {
	cfg = cfg.withDefaults()
	names := []string{
		rmGoroutines, rmHeapLive, rmHeapGoal, rmMemTotal,
		rmGCCycles, rmAllocObjects, rmAllocBytes, rmGCPauses, rmSchedLat,
	}
	b := &RuntimeBridge{
		cfg:     cfg,
		reg:     reg,
		samples: make([]metrics.Sample, len(names)),
		idx:     make(map[string]int, len(names)),
		stop:    make(chan struct{}),

		goroutines: reg.Gauge("cs_runtime_goroutines", "live goroutines (runtime/metrics bridge)"),
		heapLive:   reg.Gauge("cs_runtime_heap_live_bytes", "bytes occupied by live and not-yet-swept heap objects"),
		heapGoal:   reg.Gauge("cs_runtime_heap_goal_bytes", "heap size the GC is pacing toward"),
		memTotal:   reg.Gauge("cs_runtime_mem_total_bytes", "all memory mapped by the Go runtime"),
		gcCycles:   reg.Counter("cs_runtime_gc_cycles_total", "completed GC cycles"),
		allocObjs:  reg.Counter("cs_runtime_alloc_objects_total", "cumulative heap objects allocated"),
		allocBytes: reg.Counter("cs_runtime_alloc_bytes_total", "cumulative heap bytes allocated"),
		leakGauge:  reg.Gauge("cs_runtime_goroutine_leak_suspected", "1 while the goroutine watchdog suspects a leak"),
		leakLimitG: reg.Gauge("cs_runtime_goroutine_limit", "goroutine count the leak watchdog alarms on"),
		leakEvents: reg.Counter("cs_runtime_goroutine_leak_events_total", "transitions into the leak-suspected state"),
		leakLimit:  cfg.LeakLimit,
	}
	for i, n := range names {
		b.samples[i].Name = n
		b.idx[n] = i
	}
	for _, q := range runtimeQuantileLabels {
		b.gcPauseQ = append(b.gcPauseQ, reg.Gauge(
			Labeled("cs_runtime_gc_pause_ms", "quantile", q),
			"GC stop-the-world pause quantiles in milliseconds, over all pauses since process start"))
		b.schedLatQ = append(b.schedLatQ, reg.Gauge(
			Labeled("cs_runtime_sched_latency_ms", "quantile", q),
			"scheduler latency quantiles in milliseconds (time goroutines spend runnable before running), since process start"))
	}
	return b
}

// Start begins sampling on the configured interval (after one
// immediate sample, so the exposition is populated before the first
// tick). Safe to call once; nil-safe.
func (b *RuntimeBridge) Start() {
	if b == nil || !b.started.CompareAndSwap(false, true) {
		return
	}
	b.SampleNow()
	go func() {
		t := time.NewTicker(b.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				b.SampleNow()
			case <-b.stop:
				return
			}
		}
	}()
}

// Stop ends the sampling goroutine. Nil-safe, idempotent.
func (b *RuntimeBridge) Stop() {
	if b == nil {
		return
	}
	b.stopped.Do(func() { close(b.stop) })
}

// LeakSuspected reports whether the watchdog currently suspects a
// goroutine leak. Nil-safe.
func (b *RuntimeBridge) LeakSuspected() bool {
	if b == nil {
		return false
	}
	return b.leakSuspected.Load()
}

// SampleNow takes one sample of the runtime metric set and publishes
// it. Nil-safe; safe for concurrent callers.
func (b *RuntimeBridge) SampleNow() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	metrics.Read(b.samples)

	if v, ok := b.uint64At(rmGoroutines); ok {
		b.goroutines.Set(float64(v))
		b.watchdogLocked(int(v))
	}
	if v, ok := b.uint64At(rmHeapLive); ok {
		b.heapLive.Set(float64(v))
	}
	if v, ok := b.uint64At(rmHeapGoal); ok {
		b.heapGoal.Set(float64(v))
	}
	if v, ok := b.uint64At(rmMemTotal); ok {
		b.memTotal.Set(float64(v))
	}
	// Cumulative runtime counters arrive as absolute values; the
	// registry's counters are monotone, so publish the delta since the
	// previous sample.
	if v, ok := b.uint64At(rmGCCycles); ok && v >= b.lastGCCycles {
		b.gcCycles.Add(v - b.lastGCCycles)
		b.lastGCCycles = v
	}
	if v, ok := b.uint64At(rmAllocObjects); ok && v >= b.lastAllocObjs {
		b.allocObjs.Add(v - b.lastAllocObjs)
		b.lastAllocObjs = v
	}
	if v, ok := b.uint64At(rmAllocBytes); ok && v >= b.lastAllocBytes {
		b.allocBytes.Add(v - b.lastAllocBytes)
		b.lastAllocBytes = v
	}
	if h, ok := b.histAt(rmGCPauses); ok {
		publishHistQuantiles(b.gcPauseQ, h, 1e3) // seconds -> ms
	}
	if h, ok := b.histAt(rmSchedLat); ok {
		publishHistQuantiles(b.schedLatQ, h, 1e3)
	}
}

// watchdogLocked advances the leak heuristic with one goroutine count.
func (b *RuntimeBridge) watchdogLocked(goroutines int) {
	if b.leakLimit <= 0 {
		// Derive the limit from the first observation: generous enough
		// that steady request traffic never trips it, tight enough that
		// an unbounded goroutine-per-event bug does.
		b.leakLimit = 8 * goroutines
		if b.leakLimit < 128 {
			b.leakLimit = 128
		}
	}
	b.leakLimitG.Set(float64(b.leakLimit))
	if goroutines > b.leakLimit {
		b.leakStreak++
	} else {
		b.leakStreak = 0
		if b.leakSuspected.CompareAndSwap(true, false) {
			b.leakGauge.Set(0)
		}
	}
	if b.leakStreak >= b.cfg.LeakConsecutive {
		if b.leakSuspected.CompareAndSwap(false, true) {
			b.leakGauge.Set(1)
			b.leakEvents.Inc()
		}
	}
}

func (b *RuntimeBridge) uint64At(name string) (uint64, bool) {
	s := b.samples[b.idx[name]]
	if s.Value.Kind() != metrics.KindUint64 {
		return 0, false
	}
	return s.Value.Uint64(), true
}

func (b *RuntimeBridge) histAt(name string) (*metrics.Float64Histogram, bool) {
	s := b.samples[b.idx[name]]
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil, false
	}
	return s.Value.Float64Histogram(), true
}

// publishHistQuantiles writes runtimeQuantiles of h (scaled) into gs.
func publishHistQuantiles(gs []*Gauge, h *metrics.Float64Histogram, scale float64) {
	for i, q := range runtimeQuantiles {
		gs[i].Set(histQuantile(h, q) * scale)
	}
}

// histQuantile computes the q-quantile of a runtime/metrics cumulative
// bucket histogram, taking each bucket's upper bound as its
// representative (the pessimistic choice for a latency). Unbounded
// edge buckets fall back to their finite side. Returns 0 for an empty
// histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Bucket i spans Buckets[i] .. Buckets[i+1].
			hi := h.Buckets[i+1]
			if !math.IsInf(hi, 1) {
				return hi
			}
			lo := h.Buckets[i]
			if !math.IsInf(lo, -1) {
				return lo
			}
			return 0
		}
	}
	return 0
}

// RuntimeHealth is the runtime block of the /v1/healthz payload: the
// numbers a smoke test needs to assert the runtime bridge's view of
// the process is live, in one cheap read.
type RuntimeHealth struct {
	GCCycles       uint32  `json:"gc_cycles"`
	LastGCPauseMS  float64 `json:"last_gc_pause_ms"`
	GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	NextGCBytes    uint64  `json:"next_gc_bytes"`
	NumGoroutine   int     `json:"num_goroutine"`
	// GoroutineLeakSuspected reflects the bridge watchdog; always false
	// when no bridge is running.
	GoroutineLeakSuspected bool `json:"goroutine_leak_suspected"`
}

// ReadRuntimeHealth snapshots the runtime for a health endpoint. It
// uses runtime.ReadMemStats (the only stdlib source of the *last* GC
// pause) — fine at healthz frequency, not something to put on a hot
// path.
func ReadRuntimeHealth() RuntimeHealth {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h := RuntimeHealth{
		GCCycles:       m.NumGC,
		GCPauseTotalMS: float64(m.PauseTotalNs) / 1e6,
		HeapAllocBytes: m.HeapAlloc,
		HeapSysBytes:   m.HeapSys,
		NextGCBytes:    m.NextGC,
		NumGoroutine:   runtime.NumGoroutine(),
	}
	if m.NumGC > 0 {
		h.LastGCPauseMS = float64(m.PauseNs[(m.NumGC+255)%256]) / 1e6
	}
	return h
}
