package nowsim

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Obs bundles the optional observability outputs threaded through the
// simulators: a structured trace sink and a metrics registry. Both
// fields are nil-safe and independent; the zero Obs disables all
// instrumentation at the cost of a nil-hook branch per event (gated by
// the episode/uninstrumented and mc/20k/* rows of BenchmarkPerf).
//
// Instrumentation never changes simulation results: observed and
// unobserved runs with the same seed are identical, a property the
// determinism regression tests assert.
type Obs struct {
	// Sink receives dispatch/commit/kill/steal/... events as they
	// happen. nil disables tracing.
	Sink obs.Sink
	// Metrics, when non-nil, accumulates the standard cs_* counter,
	// gauge and quantile-summary set (see newSimMetrics).
	Metrics *obs.Registry
}

func (o Obs) enabled() bool { return o.Sink != nil || o.Metrics != nil }

// TraceEvent converts an episode event to the generic obs schema,
// tagging it with the emitting worker.
func (e EpisodeEvent) TraceEvent(worker int) obs.Event {
	return obs.Event{
		Time:   e.Time,
		Worker: worker,
		Kind:   e.Kind.String(),
		Period: e.Period,
		Length: e.Length,
	}
}

// simMetrics is the standard instrument set every simulator updates
// when a registry is supplied. All methods are nil-receiver-safe.
type simMetrics struct {
	c          float64
	dispatches *obs.Counter
	commits    *obs.Counter
	kills      *obs.Counter
	voluntary  *obs.Counter
	steals     *obs.Counter
	episodes   *obs.Counter
	committed  *obs.Gauge
	lost       *obs.Gauge
	overhead   *obs.Gauge
	periodLenQ *obs.QuantileHist
	epWorkQ    *obs.QuantileHist
	// epWork accumulates committed work within the current episode; the
	// kill or voluntary-end that closes every episode flushes it into
	// epWorkQ, so the quantile summary works on merged replays that
	// carry no episode-start markers.
	epWork float64
}

// newSimMetrics registers (or re-binds) the standard metric set on reg.
// A nil registry yields a nil *simMetrics, whose methods no-op.
func newSimMetrics(reg *obs.Registry, c float64) *simMetrics {
	if reg == nil {
		return nil
	}
	return &simMetrics{
		c:          c,
		dispatches: reg.Counter("cs_dispatch_total", "periods dispatched to borrowed workstations"),
		commits:    reg.Counter("cs_commit_total", "periods that completed before the owner returned"),
		kills:      reg.Counter("cs_kill_total", "periods destroyed by the owner's return"),
		voluntary:  reg.Counter("cs_voluntary_end_total", "episodes ended by the policy declining further work"),
		steals:     reg.Counter("cs_steal_total", "bundles containing tasks another worker lost"),
		episodes:   reg.Counter("cs_episodes_total", "cycle-stealing episodes run"),
		committed:  reg.Gauge("cs_committed_work", "total committed work"),
		lost:       reg.Gauge("cs_lost_work", "total work destroyed by reclamations"),
		overhead:   reg.Gauge("cs_overhead_time", "total communication overhead spent"),
		periodLenQ: reg.Quantiles("cs_period_length_quantiles", "dispatched period lengths (log-bucketed quantile summary)"),
		epWorkQ:    reg.Quantiles("cs_episode_committed_work", "committed work per episode"),
	}
}

// observe updates the metric set from one episode event, using the
// configured per-period overhead c for work accounting (mirroring the
// simulator: a period of length t commits or loses max(t-c, 0)).
func (m *simMetrics) observe(e EpisodeEvent) {
	if m == nil {
		return
	}
	switch e.Kind {
	case EventDispatch:
		m.dispatches.Inc()
		m.periodLenQ.Observe(e.Length)
	case EventCommit:
		m.commits.Inc()
		used := sched.PositiveSub(e.Length, m.c)
		m.committed.Add(used)
		m.epWork += used
		if e.Length > m.c {
			m.overhead.Add(m.c)
		} else {
			m.overhead.Add(e.Length)
		}
	case EventKill:
		m.kills.Inc()
		m.lost.Add(sched.PositiveSub(e.Length, m.c))
		m.epWorkQ.Observe(m.epWork)
		m.epWork = 0
	case EventVoluntaryEnd:
		m.voluntary.Inc()
		m.epWorkQ.Observe(m.epWork)
		m.epWork = 0
	case EventSteal:
		m.steals.Inc()
	case EventEpisodeStart:
		m.episodes.Inc()
	}
}

func (m *simMetrics) episodeDone() {
	if m == nil {
		return
	}
	m.episodes.Inc()
}

// episodeEmitIn builds MonteCarloCtx's emit hook: forward each event
// to the sink (tagged worker 0 and attributed to an enclosing span; an
// inactive span leaves it unattributed) and update the metrics. It is
// nil when there is nothing to observe.
func (o Obs) episodeEmitIn(m *simMetrics, span obs.Span) func(EpisodeEvent) {
	if o.Sink == nil && m == nil {
		return nil
	}
	return func(e EpisodeEvent) {
		if o.Sink != nil {
			//lint:allow obssafe this is the nil-safe wrapper itself
			o.Sink.Emit(span.Attach(e.TraceEvent(0)))
		}
		m.observe(e)
	}
}

// WorkerLabel renders the standard worker label for per-worker series,
// e.g. Labeled("cs_worker_committed_work", "worker", WorkerLabel(3)).
func WorkerLabel(id int) string { return strconv.Itoa(id) }

// workerMetrics is the per-worker instrument set the farm maintains.
type workerMetrics struct {
	committed *obs.Gauge
	lost      *obs.Gauge
	overhead  *obs.Gauge
	episodes  *obs.Counter
	tasksDone *obs.Counter
	tasksLost *obs.Counter
}

func newWorkerMetrics(reg *obs.Registry, id int) workerMetrics {
	w := obs.Labeled
	l := WorkerLabel(id)
	return workerMetrics{
		committed: reg.Gauge(w("cs_worker_committed_work", "worker", l), "per-worker committed work"),
		lost:      reg.Gauge(w("cs_worker_lost_work", "worker", l), "per-worker lost work"),
		overhead:  reg.Gauge(w("cs_worker_overhead_time", "worker", l), "per-worker communication overhead"),
		episodes:  reg.Counter(w("cs_worker_episodes_total", "worker", l), "per-worker episodes"),
		tasksDone: reg.Counter(w("cs_worker_tasks_completed_total", "worker", l), "per-worker tasks committed"),
		tasksLost: reg.Counter(w("cs_worker_tasks_lost_total", "worker", l), "per-worker task executions destroyed"),
	}
}

// farmObs carries RunFarm's instrumentation state. A nil *farmObs (the
// uninstrumented case) makes every method a no-op behind one branch, so
// the hot dispatch/commit/kill paths pay nothing when disabled.
type farmObs struct {
	sink      obs.Sink
	reg       *obs.Registry
	m         *simMetrics
	perWorker []workerMetrics
	// lostBy maps task ID -> ID of the worker whose period lost it, for
	// steal attribution: a later dispatch containing such tasks by a
	// different worker is a steal.
	lostBy map[int]int
	// periodSeq numbers each worker's dispatches so trace exporters can
	// pair a dispatch with its commit or kill.
	periodSeq []int
	// spanner frames each worker's lifecycle and episodes as B/E span
	// pairs; workerSpan/epSpan hold the open spans per worker index.
	spanner    *obs.Spanner
	workerSpan []obs.Span
	epSpan     []obs.Span
	// dispatchAt / parkedAt / epWork feed the bundle-latency, idle-time
	// and per-episode-work quantile summaries.
	dispatchAt []float64
	parkedAt   []float64
	epWork     []float64
	bundleLatQ *obs.QuantileHist
	idleQ      *obs.QuantileHist
}

func newFarmObs(o Obs, c float64, workers []Worker) *farmObs {
	if !o.enabled() {
		return nil
	}
	f := &farmObs{
		sink:       o.Sink,
		reg:        o.Metrics,
		m:          newSimMetrics(o.Metrics, c),
		lostBy:     make(map[int]int),
		periodSeq:  make([]int, len(workers)),
		spanner:    obs.NewSpanner(o.Sink),
		workerSpan: make([]obs.Span, len(workers)),
		epSpan:     make([]obs.Span, len(workers)),
		dispatchAt: make([]float64, len(workers)),
		parkedAt:   make([]float64, len(workers)),
		epWork:     make([]float64, len(workers)),
	}
	if reg := o.Metrics; reg != nil {
		f.perWorker = make([]workerMetrics, len(workers))
		for i := range workers {
			f.perWorker[i] = newWorkerMetrics(reg, workers[i].ID)
		}
		f.bundleLatQ = reg.Quantiles("cs_bundle_latency", "dispatch-to-outcome latency of task bundles")
		f.idleQ = reg.Quantiles("cs_worker_idle_time", "time workers spent parked on an empty pool")
	}
	return f
}

func (f *farmObs) emit(e obs.Event) {
	if f.sink != nil {
		f.sink.Emit(e)
	}
}

func (f *farmObs) episodeStart(w *farmWorker, now float64) {
	if f == nil {
		return
	}
	if f.spanner != nil {
		if !f.workerSpan[w.idx].Active() {
			f.workerSpan[w.idx] = f.spanner.Start(now, w.stats.ID, "worker", obs.SpanAttrs{})
		}
		f.epSpan[w.idx] = f.workerSpan[w.idx].Child(now, "episode", obs.SpanAttrs{})
	}
	f.emit(f.epSpan[w.idx].Attach(obs.Event{Time: now, Worker: w.stats.ID, Kind: EventEpisodeStart.String()}))
	if f.m != nil {
		f.m.episodes.Inc()
		f.perWorker[w.idx].episodes.Inc()
	}
}

// episodeEnd closes the worker's episode span and flushes its
// per-episode committed work into the quantile summary. now is the
// episode's end time: the reclaim instant or the voluntary end.
func (f *farmObs) episodeEnd(w *farmWorker, now float64) {
	if f == nil {
		return
	}
	f.epSpan[w.idx].End(now)
	f.epSpan[w.idx] = obs.Span{}
	if f.m != nil {
		f.m.epWorkQ.Observe(f.epWork[w.idx])
	}
	f.epWork[w.idx] = 0
}

// parked marks the worker idle on an empty pool; woke closes the idle
// stretch when a requeue restarts it.
func (f *farmObs) parked(w *farmWorker, now float64) {
	if f == nil {
		return
	}
	f.parkedAt[w.idx] = now
}

func (f *farmObs) woke(w *farmWorker, now float64) {
	if f == nil {
		return
	}
	if f.idleQ != nil {
		f.idleQ.Observe(now - f.parkedAt[w.idx])
	}
}

// dispatch records a period dispatch and returns its per-worker
// sequence number (the trace's period index). Tasks previously lost by
// another worker count as stolen and emit an EventSteal marker.
func (f *farmObs) dispatch(w *farmWorker, now, length float64, bundle []Task) int {
	if f == nil {
		return 0
	}
	period := f.periodSeq[w.idx]
	f.periodSeq[w.idx]++
	f.dispatchAt[w.idx] = now
	stolen := 0
	for _, task := range bundle {
		if loser, ok := f.lostBy[task.ID]; ok {
			delete(f.lostBy, task.ID)
			if loser != w.stats.ID {
				stolen++
			}
		}
	}
	ep := f.epSpan[w.idx]
	f.emit(ep.Attach(obs.Event{Time: now, Worker: w.stats.ID, Kind: EventDispatch.String(),
		Period: period, Length: length, Tasks: len(bundle)}))
	if stolen > 0 {
		f.emit(ep.Attach(obs.Event{Time: now, Worker: w.stats.ID, Kind: EventSteal.String(),
			Period: period, Tasks: stolen}))
	}
	if f.m != nil {
		f.m.dispatches.Inc()
		f.m.periodLenQ.Observe(length)
		if stolen > 0 {
			f.m.steals.Inc()
		}
	}
	return period
}

func (f *farmObs) commit(w *farmWorker, period int, now, length, used float64, bundle []Task) {
	if f == nil {
		return
	}
	f.epWork[w.idx] += used
	f.emit(f.epSpan[w.idx].Attach(obs.Event{Time: now, Worker: w.stats.ID, Kind: EventCommit.String(),
		Period: period, Length: length, Tasks: len(bundle)}))
	if f.m != nil {
		f.m.commits.Inc()
		f.m.committed.Add(used)
		f.m.overhead.Add(f.m.c)
		f.bundleLatQ.Observe(now - f.dispatchAt[w.idx])
		pw := &f.perWorker[w.idx]
		pw.committed.Add(used)
		pw.overhead.Add(f.m.c)
		pw.tasksDone.Add(uint64(len(bundle)))
	}
}

func (f *farmObs) kill(w *farmWorker, period int, now, length, used float64, bundle []Task) {
	if f == nil {
		return
	}
	for _, task := range bundle {
		f.lostBy[task.ID] = w.stats.ID
	}
	f.emit(f.epSpan[w.idx].Attach(obs.Event{Time: now, Worker: w.stats.ID, Kind: EventKill.String(),
		Period: period, Length: length, Tasks: len(bundle)}))
	if f.m != nil {
		f.m.kills.Inc()
		f.m.lost.Add(used)
		f.bundleLatQ.Observe(now - f.dispatchAt[w.idx])
		pw := &f.perWorker[w.idx]
		pw.lost.Add(used)
		pw.tasksLost.Add(uint64(len(bundle)))
	}
}

func (f *farmObs) voluntaryEnd(w *farmWorker, now float64) {
	if f == nil {
		return
	}
	f.emit(f.epSpan[w.idx].Attach(obs.Event{Time: now, Worker: w.stats.ID, Kind: EventVoluntaryEnd.String(), Period: -1}))
	if f.m != nil {
		f.m.voluntary.Inc()
	}
}

// finish closes the spans a completed run leaves open (a worker's
// lifecycle span always; its episode span when the run ended mid-
// episode) and publishes the end-of-run engine and farm gauges.
func (f *farmObs) finish(eng *Engine, res *FarmResult) {
	if f == nil {
		return
	}
	for i := range f.workerSpan {
		f.epSpan[i].End(res.Makespan)
		f.workerSpan[i].End(res.Makespan)
	}
	if f.reg == nil {
		return
	}
	f.reg.Gauge("cs_engine_events_fired", "discrete events the engine executed").Set(float64(eng.Fired()))
	f.reg.Gauge("cs_farm_makespan", "farm run makespan").Set(res.Makespan)
	f.reg.Gauge("cs_farm_efficiency", "committed work over total borrowed time").Set(res.Efficiency())
	drained := 0.0
	if res.Drained {
		drained = 1
	}
	f.reg.Gauge("cs_farm_drained", "1 when every task committed before MaxTime").Set(drained)
}
