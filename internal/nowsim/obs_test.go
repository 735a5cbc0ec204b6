package nowsim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
)

func testLife(t testing.TB) lifefn.Life {
	t.Helper()
	l, err := lifefn.NewUniform(64)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fixedOwner reclaims at the same time in every episode.
type fixedOwner float64

func (f fixedOwner) ReclaimAfter(*rng.Source) float64 { return float64(f) }
func (f fixedOwner) String() string                   { return "fixed" }

// TestMonteCarloEmitMatchesRecorded: for one episode, MonteCarloCtx's
// event stream is exactly the recorded log, tagged worker 0 and framed
// by the "mc-batch" span that every point event references as its
// parent.
func TestMonteCarloEmitMatchesRecorded(t *testing.T) {
	s := sched.MustNew(4, 3, 2)
	var buf obs.BufferSink
	res := serialMC(t, NewSchedulePolicy(s, "obs"), fixedOwner(8), 1, 1, 7, Obs{Sink: &buf})
	plain, log := RunEpisodeRecorded(NewSchedulePolicy(s, "rec"), 1, 8)
	//lint:allow floatcmp a one-episode mean is that episode's work verbatim
	if res.Episodes != 1 || res.Work.Mean != plain.Work || (res.Reclaimed == 1) != plain.Reclaimed {
		t.Errorf("Monte-Carlo result %+v does not match the recorded episode %+v", res, plain)
	}
	if len(buf.Events) != len(log)+2 {
		t.Fatalf("sink got %d events, recorder %d (+2 span frames)", len(buf.Events), len(log))
	}
	first, last := buf.Events[0], buf.Events[len(buf.Events)-1]
	if first.Phase != obs.PhaseBegin || first.Kind != "mc-batch" || first.Span == 0 || first.Tasks != 1 {
		t.Errorf("first event is not the mc-batch span begin: %+v", first)
	}
	if last.Phase != obs.PhaseEnd || last.Kind != "mc-batch" || last.Span != first.Span {
		t.Errorf("last event is not the matching mc-batch span end: %+v", last)
	}
	for i := range log {
		want := log[i].TraceEvent(0)
		//lint:allow obssafe the test builds the expected attributed event by hand
		want.Parent = first.Span
		if buf.Events[i+1] != want {
			t.Errorf("event %d = %+v, want %+v", i, buf.Events[i+1], want)
		}
	}
}

// TestMonteCarloDeterminism: identical seeds produce identical results
// with the sink enabled vs. disabled, and byte-identical JSONL traces
// across repeated runs — the satellite regression the ISSUE demands.
func TestMonteCarloDeterminism(t *testing.T) {
	l := testLife(t)
	owner := LifeOwner{Life: l}
	pol := func() Policy { return &FixedChunkPolicy{Chunk: 7} }

	run := func(o Obs) MonteCarloResult { return serialMC(t, pol(), owner, 1, 500, 42, o) }
	plain := run(Obs{})

	trace := func() ([]byte, MonteCarloResult) {
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		res := run(Obs{Sink: sink, Metrics: obs.NewRegistry()})
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res
	}
	b1, r1 := trace()
	b2, r2 := trace()
	if !bytes.Equal(b1, b2) {
		t.Error("JSONL traces from identical seeds are not byte-identical")
	}
	if len(b1) == 0 {
		t.Fatal("trace is empty")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("observed runs differ: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(r1, plain) {
		t.Errorf("sink-enabled result %+v != sink-disabled result %+v", r1, plain)
	}
}

func farmConfig(t testing.TB, o Obs) (FarmConfig, *TaskPool) {
	t.Helper()
	l, err := lifefn.NewUniform(60)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]Worker, 4)
	for i := range ws {
		ws[i] = Worker{
			ID:    i,
			Owner: LifeOwner{Life: l},
			BusySampler: func(r *rng.Source) float64 {
				return r.Uniform(5, 20)
			},
			PolicyFactory: func() Policy { return &FixedChunkPolicy{Chunk: 25} },
		}
	}
	pool, err := NewUniformTasks(400, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return FarmConfig{Workers: ws, Overhead: 1, Seed: 11, MaxTime: 1e6, Obs: o}, pool
}

// TestRunFarmObsNeutral: instrumentation does not change farm results.
func TestRunFarmObsNeutral(t *testing.T) {
	cfgPlain, poolPlain := farmConfig(t, Obs{})
	plain, err := RunFarm(cfgPlain, poolPlain)
	if err != nil {
		t.Fatal(err)
	}
	var buf obs.BufferSink
	reg := obs.NewRegistry()
	cfgObs, poolObs := farmConfig(t, Obs{Sink: &buf, Metrics: reg})
	observed, err := RunFarm(cfgObs, poolObs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("farm results differ:\nplain    %+v\nobserved %+v", plain, observed)
	}
	if len(buf.Events) == 0 {
		t.Fatal("farm emitted no events")
	}
	kinds := map[string]int{}
	for _, e := range buf.Events {
		kinds[e.Kind]++
	}
	for _, k := range []string{"episode-start", "dispatch", "commit"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in farm trace (kinds: %v)", k, kinds)
		}
	}
	// The uniform(60) owners reclaim often against chunk-25 periods, so
	// kills — and with 4 workers sharing a pool, steals — must occur.
	if kinds["kill"] == 0 {
		t.Errorf("no kill events (kinds: %v)", kinds)
	}
	if kinds["steal"] == 0 {
		t.Errorf("no steal events despite kills and a shared pool (kinds: %v)", kinds)
	}
	// Metrics must agree with the result's own accounting.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"cs_committed_work", "cs_worker_committed_work{worker=\"0\"}",
		"cs_engine_events_fired", "cs_farm_makespan", "cs_steal_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := reg.Gauge("cs_committed_work", "").Value(); math.Abs(got-observed.CommittedWork) > 1e-9 {
		t.Errorf("cs_committed_work = %g, result says %g", got, observed.CommittedWork)
	}
	if got := reg.Counter("cs_episodes_total", "").Value(); got != uint64(observed.Episodes) {
		t.Errorf("cs_episodes_total = %d, result says %d", got, observed.Episodes)
	}
}

// TestFarmChromeTraceValid: the acceptance-criterion check — a farm run
// exported through the Chrome sink is valid trace_event JSON that
// Perfetto will load.
func TestFarmChromeTraceValid(t *testing.T) {
	var raw bytes.Buffer
	sink := obs.NewChromeSink(&raw)
	cfg, pool := farmConfig(t, Obs{Sink: sink})
	if _, err := RunFarm(cfg, pool); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	slices := 0
	for _, ev := range tr.TraceEvents {
		for _, key := range []string{"ph", "pid", "tid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		if ev["ph"] == "X" {
			slices++
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("slice missing ts: %v", ev)
			}
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("slice missing dur: %v", ev)
			}
		}
	}
	if slices == 0 {
		t.Error("no complete (ph=X) period slices in farm trace")
	}
}

// TestFarmChromeSpanNesting round-trips a multi-worker farm trace
// through the Chrome exporter and replays the viewer's own matching
// rules: a constant pid, every thread's stream time-ordered, and B/E
// span events forming a properly nested stack per thread (an E always
// closes the most recent open B, no orphans, nothing left open). This
// is exactly what breaks when interleaved workers are written in global
// emission order, so it pins the per-tid sort + repair pass at Close.
func TestFarmChromeSpanNesting(t *testing.T) {
	var raw bytes.Buffer
	sink := obs.NewChromeSink(&raw)
	cfg, pool := farmConfig(t, Obs{Sink: sink})
	if _, err := RunFarm(cfg, pool); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	lastTs := map[int]float64{}
	stacks := map[int][]string{}
	var begins, ends int
	for i, ev := range tr.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Pid != 1 {
			t.Fatalf("event %d: pid = %d, want the stable pid 1", i, ev.Pid)
		}
		if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
			t.Fatalf("event %d (tid %d): ts %g after %g — thread stream not time-ordered", i, ev.Tid, ev.Ts, prev)
		}
		lastTs[ev.Tid] = ev.Ts
		switch ev.Ph {
		case "B":
			begins++
			stacks[ev.Tid] = append(stacks[ev.Tid], ev.Name)
		case "E":
			ends++
			st := stacks[ev.Tid]
			if len(st) == 0 {
				t.Fatalf("event %d (tid %d): E %q with no open span", i, ev.Tid, ev.Name)
			}
			if top := st[len(st)-1]; ev.Name != "" && ev.Name != top {
				t.Fatalf("event %d (tid %d): E %q does not close innermost B %q", i, ev.Tid, ev.Name, top)
			}
			stacks[ev.Tid] = st[:len(st)-1]
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %d: spans left open at end of trace: %v", tid, st)
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("span framing: %d begins, %d ends — farm should emit balanced worker/episode spans", begins, ends)
	}
	// The farm instrumentation opens a worker span per workstation and an
	// episode span per episode; both kinds must survive the round trip.
	kinds := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "B" {
			kinds[ev.Name] = true
		}
	}
	for _, want := range []string{"worker", "episode"} {
		if !kinds[want] {
			t.Errorf("no %q B span in farm trace (kinds: %v)", want, kinds)
		}
	}
}

// TestEventKindRoundTrip: every kind names itself and survives the
// trace encoder; unknown kinds fall back cleanly.
func TestEventKindRoundTrip(t *testing.T) {
	kinds := []EventKind{
		EventDispatch, EventCommit, EventKill,
		EventVoluntaryEnd, EventSteal, EventEpisodeStart,
	}
	wantNames := []string{
		"dispatch", "commit", "kill",
		"voluntary-end", "steal", "episode-start",
	}
	for i, k := range kinds {
		if k.String() != wantNames[i] {
			t.Errorf("kind %d String() = %q, want %q", int(k), k.String(), wantNames[i])
		}
		ev := EpisodeEvent{Time: 1.5, Kind: k, Period: i, Length: 2.25}
		te := ev.TraceEvent(3)
		if te.Kind != wantNames[i] || te.Worker != 3 || te.Time != 1.5 || te.Period != i || te.Length != 2.25 {
			t.Errorf("TraceEvent round-trip for %v = %+v", k, te)
		}
		// Both exporters must accept every kind without error.
		var jbuf, cbuf bytes.Buffer
		js, cs := obs.NewJSONLSink(&jbuf), obs.NewChromeSink(&cbuf)
		js.Emit(te)
		cs.Emit(te)
		if err := js.Close(); err != nil {
			t.Errorf("JSONL encode of %v: %v", k, err)
		}
		if err := cs.Close(); err != nil {
			t.Errorf("chrome encode of %v: %v", k, err)
		}
		if !json.Valid(cbuf.Bytes()) {
			t.Errorf("chrome encoding of %v is invalid JSON", k)
		}
		var line struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(jbuf.Bytes()), &line); err != nil || line.Kind != wantNames[i] {
			t.Errorf("JSONL round-trip of %v: kind %q, err %v", k, line.Kind, err)
		}
	}
	unknown := EventKind(99)
	if unknown.String() != "unknown" {
		t.Errorf("EventKind(99).String() = %q, want \"unknown\"", unknown.String())
	}
	te := EpisodeEvent{Kind: unknown}.TraceEvent(0)
	if te.Kind != "unknown" {
		t.Errorf("unknown kind trace event = %+v", te)
	}
}
