package obs

// Span support: a lightweight begin/end pair layered on the existing
// Event schema and Sink interface. A Spanner allocates span IDs
// sequentially from 1, so a run that creates one Spanner per trace gets
// deterministic IDs and byte-identical traces across repeats — the same
// reproducibility contract the point events already honor.
//
// Span events reuse the flat Event struct: Phase is PhaseBegin or
// PhaseEnd, Span is the span's own ID and Parent its parent's (0 for
// roots). Point events may also carry a Parent, attributing them to the
// enclosing span without opening one (that is how dispatch/commit/kill
// events hang off their episode span). The JSONL exporter appends the
// span fields only when set, so traces without spans are byte-identical
// to pre-span output; the Chrome exporter renders spans as nested
// trace_event "B"/"E" pairs.
//
// Construct span events through a Spanner (or the nowsim.Obs wrappers
// that hold one), never as raw Event literals: the obssafe analyzer
// flags literals that set Phase/Span/Parent outside obs packages,
// because hand-rolled span events bypass ID allocation and make
// unbalanced begin/end pairs easy.

// Phase values for span events. The empty string marks a point event.
const (
	PhaseBegin = "B"
	PhaseEnd   = "E"
)

// SpanAttrs carries the optional Event fields recorded on a span's
// begin event.
type SpanAttrs struct {
	Period int
	Length float64
	Tasks  int
}

// Spanner allocates span IDs and emits begin/end events through a sink.
// A nil *Spanner (from NewSpanner(nil)) is fully inert: Start returns
// an inactive Span whose methods no-op, so callers need no nil checks.
// Spanner is not goroutine-safe; like sinks, it is driven from the
// single emitting goroutine.
type Spanner struct {
	sink Sink
	next uint64
}

// NewSpanner returns a Spanner emitting through sink, or nil (inert)
// when sink is nil.
func NewSpanner(sink Sink) *Spanner {
	if sink == nil {
		return nil
	}
	return &Spanner{sink: sink}
}

// Span is one live span. The zero Span is inactive: End and Child
// no-op (Child returns another inactive Span) and ID returns 0.
type Span struct {
	sp     *Spanner
	id     uint64
	parent uint64
	worker int
	kind   string
}

// Start opens a root span of the given kind on worker at the given
// simulation time and emits its begin event.
func (s *Spanner) Start(time float64, worker int, kind string, a SpanAttrs) Span {
	return s.start(time, worker, kind, 0, a)
}

func (s *Spanner) start(time float64, worker int, kind string, parent uint64, a SpanAttrs) Span {
	if s == nil {
		return Span{}
	}
	s.next++
	sp := Span{sp: s, id: s.next, parent: parent, worker: worker, kind: kind}
	s.sink.Emit(Event{
		Time: time, Worker: worker, Kind: kind,
		Period: a.Period, Length: a.Length, Tasks: a.Tasks,
		Phase: PhaseBegin, Span: sp.id, Parent: parent,
	})
	return sp
}

// Child opens a child span of s (same worker) and emits its begin
// event. On an inactive Span it returns another inactive Span.
func (s Span) Child(time float64, kind string, a SpanAttrs) Span {
	if s.sp == nil {
		return Span{}
	}
	return s.sp.start(time, s.worker, kind, s.id, a)
}

// End emits the span's end event. Ending an inactive Span is a no-op;
// ending twice emits twice (callers own the pairing, and the Chrome
// exporter drops unbalanced ends).
func (s Span) End(time float64) {
	if s.sp == nil {
		return
	}
	s.sp.sink.Emit(Event{
		Time: time, Worker: s.worker, Kind: s.kind,
		Phase: PhaseEnd, Span: s.id, Parent: s.parent,
	})
}

// Attach returns e with its Parent set to this span — the sanctioned
// way to attribute a point event to a span without a raw literal (which
// obssafe would flag). On an inactive Span, e passes through with
// Parent 0, i.e. unattributed.
func (s Span) Attach(e Event) Event {
	e.Parent = s.id
	return e
}

// Active reports whether the span will emit on End.
func (s Span) Active() bool { return s.sp != nil }
