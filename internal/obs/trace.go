package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Event is one structured trace record. The schema is deliberately
// flat and simulator-agnostic: Time is simulation time, Worker tags the
// emitting workstation (0 for single-workstation runs), Kind is a short
// verb ("dispatch", "commit", "kill", "steal", ...), and the remaining
// fields qualify it where meaningful (zero otherwise).
//
// Phase, Span and Parent are the span extension (see span.go): Phase is
// PhaseBegin/PhaseEnd for span boundary events and empty for point
// events; Span is the span's ID; Parent attributes the event (span or
// point) to an enclosing span. All three are zero on plain events, and
// the exporters omit them when zero, so span-free traces are unchanged.
type Event struct {
	Time   float64
	Worker int
	Kind   string
	Period int
	Length float64
	Tasks  int
	Phase  string
	Span   uint64
	Parent uint64
}

// spanful reports whether the event carries any span field.
func (e Event) spanful() bool {
	return e.Phase != "" || e.Span != 0 || e.Parent != 0
}

// Sink consumes trace events. Implementations need not be
// goroutine-safe: the simulators emit from a single goroutine (parallel
// Monte-Carlo buffers per block and replays in deterministic order).
//
// Sink fields on simulator configs are nil-safe: a nil Sink disables
// tracing entirely, and the emission sites guard with a single nil
// check so the disabled cost is one predictable branch.
type Sink interface {
	Emit(Event)
}

// BufferSink collects events in memory — for tests and for the
// deterministic replay of parallel runs.
type BufferSink struct {
	Events []Event
}

// Emit implements Sink.
func (b *BufferSink) Emit(e Event) { b.Events = append(b.Events, e) }

// trimFloat formats a float with the shortest round-trip decimal
// representation — deterministic across runs and platforms.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendEventJSON renders one event as a single JSON object with fixed
// field order and float formatting, so identical event streams produce
// byte-identical output.
func appendEventJSON(b []byte, e Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, e.Time, 'g', -1, 64)
	b = append(b, `,"w":`...)
	b = strconv.AppendInt(b, int64(e.Worker), 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, e.Kind)
	b = append(b, `,"period":`...)
	b = strconv.AppendInt(b, int64(e.Period), 10)
	b = append(b, `,"len":`...)
	b = strconv.AppendFloat(b, e.Length, 'g', -1, 64)
	b = append(b, `,"tasks":`...)
	b = strconv.AppendInt(b, int64(e.Tasks), 10)
	if e.spanful() {
		if e.Phase != "" {
			b = append(b, `,"ph":`...)
			b = strconv.AppendQuote(b, e.Phase)
		}
		if e.Span != 0 {
			b = append(b, `,"span":`...)
			b = strconv.AppendUint(b, e.Span, 10)
		}
		if e.Parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, e.Parent, 10)
		}
	}
	b = append(b, '}', '\n')
	return b
}

// JSONLSink writes one JSON object per event, one per line. Field
// order and float formatting are fixed, so identical event streams
// produce byte-identical files — the property the determinism
// regression tests assert.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONLSink wraps w in a buffered JSONL exporter. Call Close (or at
// least Flush via Close) before reading the output.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	if s == nil || s.err != nil {
		return
	}
	s.buf = appendEventJSON(s.buf[:0], e)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// Close flushes the writer and returns the first error seen.
func (s *JSONLSink) Close() error {
	if s == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// chromeTsScale maps one simulation time unit to Chrome's microsecond
// timestamps: 1 sim unit = 1000 µs = 1 ms, matching displayTimeUnit.
const chromeTsScale = 1000

// chromePid is the single process ID all rows share; each worker is a
// thread of it. A constant pid plus tid = Worker gives every worker a
// stable identity across runs and policies, which is what lets two
// traces of the same scenario be diffed row by row.
const chromePid = 1

// ChromeSink exports events in the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// load the output in chrome://tracing or https://ui.perfetto.dev to see
// each worker as a timeline row, dispatched periods as slices (cat
// "commit" or "kill" by outcome), span begin/end pairs ("worker",
// "episode", "mc-batch") as nested B/E slices, and voluntary-end/steal
// markers as instants.
//
// Events are buffered per worker (tid) and written at Close sorted by
// timestamp with a stable arrival-order tie-break, so each thread's
// stream is time-ordered even when multiple workers interleave — the
// ordering trace viewers assume when matching B/E pairs. Unbalanced
// span events are repaired at Close: an end with no open begin on its
// thread is dropped, and a begin never ended (a run cut off at MaxTime)
// gets a synthetic end at the thread's last timestamp. The buffering
// means a Chrome trace of a huge run holds every event in memory; for
// such runs use JSONL instead.
type ChromeSink struct {
	w   *bufio.Writer
	buf []byte
	err error
	seq int
	// open tracks dispatched periods by (worker, period) so a commit or
	// kill closes the matching X slice.
	open map[int64]chromeSpan
	// perTid buffers rendered records by worker; tids remembers
	// first-seen order for deterministic output.
	perTid map[int][]chromeRecord
	tids   []int
}

type chromeSpan struct {
	start  float64
	length float64
}

type chromeRecord struct {
	ts    float64 // microseconds
	seq   int     // arrival order: stable tie-break
	phase byte    // 'B', 'E' or 0 for everything else
	kind  string
	body  []byte
}

// NewChromeSink wraps w in a trace_event exporter. Close writes the
// buffered events and the JSON trailer; an unclosed file is not valid
// JSON.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{
		w:      bufio.NewWriterSize(w, 1<<16),
		open:   make(map[int64]chromeSpan),
		perTid: make(map[int][]chromeRecord),
	}
}

// record buffers one rendered event on worker's thread.
func (s *ChromeSink) record(worker int, ts float64, phase byte, kind string, body []byte) {
	if _, ok := s.perTid[worker]; !ok {
		s.tids = append(s.tids, worker)
	}
	s.perTid[worker] = append(s.perTid[worker], chromeRecord{
		ts: ts, seq: s.seq, phase: phase, kind: kind,
		body: append([]byte(nil), body...),
	})
	s.seq++
}

// Emit implements Sink.
func (s *ChromeSink) Emit(e Event) {
	if s == nil || s.err != nil {
		return
	}
	switch {
	case e.Phase == PhaseBegin:
		b := s.buf[:0]
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, e.Kind)
		b = append(b, `,"cat":"span","ph":"B","ts":`...)
		b = strconv.AppendFloat(b, e.Time*chromeTsScale, 'g', -1, 64)
		b = s.appendPidTid(b, e.Worker)
		b = append(b, `,"args":{"span":`...)
		b = strconv.AppendUint(b, e.Span, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, e.Parent, 10)
		if e.Tasks != 0 {
			b = append(b, `,"tasks":`...)
			b = strconv.AppendInt(b, int64(e.Tasks), 10)
		}
		b = append(b, `}}`...)
		s.buf = b
		s.record(e.Worker, e.Time*chromeTsScale, 'B', e.Kind, b)
	case e.Phase == PhaseEnd:
		b := s.buf[:0]
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, e.Kind)
		b = append(b, `,"cat":"span","ph":"E","ts":`...)
		b = strconv.AppendFloat(b, e.Time*chromeTsScale, 'g', -1, 64)
		b = s.appendPidTid(b, e.Worker)
		b = append(b, `,"args":{"span":`...)
		b = strconv.AppendUint(b, e.Span, 10)
		b = append(b, `}}`...)
		s.buf = b
		s.record(e.Worker, e.Time*chromeTsScale, 'E', e.Kind, b)
	case e.Kind == "dispatch":
		key := int64(e.Worker)<<32 | int64(uint32(e.Period))
		s.open[key] = chromeSpan{start: e.Time, length: e.Length}
		s.touch(e.Worker)
	case e.Kind == "commit" || e.Kind == "kill":
		key := int64(e.Worker)<<32 | int64(uint32(e.Period))
		sp, ok := s.open[key]
		if !ok {
			// Tolerate streams without dispatch events: synthesize the
			// span from the reported length.
			sp = chromeSpan{start: e.Time - e.Length, length: e.Length}
		}
		delete(s.open, key)
		dur := (e.Time - sp.start) * chromeTsScale
		if dur < 0 {
			dur = 0
		}
		b := s.buf[:0]
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, "p"+strconv.Itoa(e.Period))
		b = append(b, `,"cat":`...)
		b = strconv.AppendQuote(b, e.Kind)
		b = append(b, `,"ph":"X","ts":`...)
		b = strconv.AppendFloat(b, sp.start*chromeTsScale, 'g', -1, 64)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, dur, 'g', -1, 64)
		b = s.appendPidTid(b, e.Worker)
		b = append(b, `,"args":{"period":`...)
		b = strconv.AppendInt(b, int64(e.Period), 10)
		b = append(b, `,"len":`...)
		b = strconv.AppendFloat(b, e.Length, 'g', -1, 64)
		b = append(b, `,"tasks":`...)
		b = strconv.AppendInt(b, int64(e.Tasks), 10)
		b = append(b, `}}`...)
		s.buf = b
		s.record(e.Worker, sp.start*chromeTsScale, 0, e.Kind, b)
	default:
		b := s.buf[:0]
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, e.Kind)
		b = append(b, `,"ph":"i","s":"t","ts":`...)
		b = strconv.AppendFloat(b, e.Time*chromeTsScale, 'g', -1, 64)
		b = s.appendPidTid(b, e.Worker)
		b = append(b, `,"args":{"tasks":`...)
		b = strconv.AppendInt(b, int64(e.Tasks), 10)
		b = append(b, `}}`...)
		s.buf = b
		s.record(e.Worker, e.Time*chromeTsScale, 0, e.Kind, b)
	}
}

func (s *ChromeSink) appendPidTid(b []byte, worker int) []byte {
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, chromePid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(worker), 10)
	return b
}

// touch registers worker as a known tid without buffering a record, so
// a worker whose only activity is an open dispatch still gets a named
// row.
func (s *ChromeSink) touch(worker int) {
	if _, ok := s.perTid[worker]; !ok {
		s.tids = append(s.tids, worker)
		s.perTid[worker] = nil
	}
}

func (s *ChromeSink) writeRaw(started *bool, n *int, b []byte) {
	if s.err != nil {
		return
	}
	if !*started {
		if _, err := s.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
			s.err = err
			return
		}
		*started = true
	}
	if *n > 0 {
		if _, err := s.w.WriteString(",\n"); err != nil {
			s.err = err
			return
		}
	}
	*n++
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Close sorts each thread's buffered events by timestamp (stable in
// arrival order), repairs unbalanced span pairs, writes everything with
// process/thread metadata, and flushes. Periods still open (a dispatch
// whose outcome never arrived, e.g. a run cut off at MaxTime) are
// dropped: trace viewers reject dangling begin events, and a truncated
// run is exactly when that happens.
func (s *ChromeSink) Close() error {
	if s == nil {
		return nil
	}
	started, n := false, 0

	// Metadata first: process name, then one thread_name plus
	// thread_sort_index per tid in sorted order, so rows render stably.
	tids := append([]int(nil), s.tids...)
	sort.Ints(tids)
	if len(tids) > 0 {
		b := s.buf[:0]
		b = append(b, `{"name":"process_name","ph":"M","pid":`...)
		b = strconv.AppendInt(b, chromePid, 10)
		b = append(b, `,"tid":0,"args":{"name":"cyclesteal"}}`...)
		s.buf = b
		s.writeRaw(&started, &n, b)
	}
	for _, tid := range tids {
		name := fmt.Sprintf("worker %d", tid)
		if tid < 0 {
			// Negative workers are synthetic rows (the Monte-Carlo
			// coordinator emits mc-batch spans as worker -1).
			name = "coordinator"
		}
		b := s.buf[:0]
		b = append(b, `{"name":"thread_name","ph":"M","pid":`...)
		b = strconv.AppendInt(b, chromePid, 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"args":{"name":`...)
		b = strconv.AppendQuote(b, name)
		b = append(b, `}}`...)
		s.buf = b
		s.writeRaw(&started, &n, b)
		b = s.buf[:0]
		b = append(b, `{"name":"thread_sort_index","ph":"M","pid":`...)
		b = strconv.AppendInt(b, chromePid, 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"args":{"sort_index":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `}}`...)
		s.buf = b
		s.writeRaw(&started, &n, b)
	}

	for _, tid := range tids {
		recs := s.perTid[tid]
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].ts != recs[j].ts { //lint:allow floatcmp equal timestamps defer to stable arrival order
				return recs[i].ts < recs[j].ts
			}
			return recs[i].seq < recs[j].seq
		})
		depth := 0
		lastTs := 0.0
		var openKinds []string
		for _, r := range recs {
			if r.ts > lastTs {
				lastTs = r.ts
			}
			switch r.phase {
			case 'B':
				depth++
				openKinds = append(openKinds, r.kind)
			case 'E':
				if depth == 0 {
					continue // orphan end: would corrupt the viewer's stack
				}
				depth--
				openKinds = openKinds[:len(openKinds)-1]
			}
			s.writeRaw(&started, &n, r.body)
		}
		// Synthesize ends for spans left open, innermost first.
		for i := len(openKinds) - 1; i >= 0; i-- {
			b := s.buf[:0]
			b = append(b, `{"name":`...)
			b = strconv.AppendQuote(b, openKinds[i])
			b = append(b, `,"cat":"span","ph":"E","ts":`...)
			b = strconv.AppendFloat(b, lastTs, 'g', -1, 64)
			b = s.appendPidTid(b, tid)
			b = append(b, `,"args":{"truncated":true}}`...)
			s.buf = b
			s.writeRaw(&started, &n, b)
		}
	}

	if s.err == nil && !started {
		// No events: still produce a valid, empty trace.
		if _, err := s.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
			s.err = err
		}
		started = true
	}
	if s.err == nil {
		if _, err := s.w.WriteString("\n]}\n"); err != nil {
			s.err = err
		}
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}
