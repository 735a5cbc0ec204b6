package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Time: 0, Worker: 0, Kind: "dispatch", Period: 0, Length: 4},
		{Time: 4, Worker: 0, Kind: "commit", Period: 0, Length: 4, Tasks: 3},
		{Time: 4, Worker: 1, Kind: "dispatch", Period: 0, Length: 2.5},
		{Time: 5, Worker: 1, Kind: "kill", Period: 0, Length: 2.5, Tasks: 2},
		{Time: 5, Worker: 0, Kind: "steal", Tasks: 2},
		{Time: 6, Worker: 0, Kind: "voluntary-end", Period: -1},
	}
}

func TestJSONLDeterministicAndParsable(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		for _, e := range sampleEvents() {
			s.Emit(e)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("JSONL output is not byte-identical across runs")
	}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("got %d lines, want %d", len(lines), len(sampleEvents()))
	}
	var first struct {
		T      float64 `json:"t"`
		W      int     `json:"w"`
		Kind   string  `json:"kind"`
		Period int     `json:"period"`
		Len    float64 `json:"len"`
		Tasks  int     `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if first.Kind != "dispatch" || first.Len != 4 {
		t.Errorf("line 0 round-trip = %+v", first)
	}
}

// chromeTrace is the trace_event container format.
type chromeTrace struct {
	DisplayTimeUnit string                   `json:"displayTimeUnit"`
	TraceEvents     []map[string]interface{} `json:"traceEvents"`
}

func TestChromeSinkValidTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	for _, e := range sampleEvents() {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var slices, instants, meta int
	for _, ev := range tr.TraceEvents {
		ph, _ := ev["ph"].(string)
		for _, key := range []string{"ph", "pid", "tid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event missing %q: %v", key, ev)
			}
		}
		switch ph {
		case "X":
			slices++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event missing dur: %v", ev)
			}
			if _, ok := ev["ts"]; !ok {
				t.Errorf("complete event missing ts: %v", ev)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q: %v", ph, ev)
		}
	}
	// 1 commit slice + 1 kill slice, 2 instants (steal, voluntary-end),
	// 1 process_name plus thread_name and thread_sort_index per worker.
	if slices != 2 || instants != 2 || meta != 5 {
		t.Errorf("got %d slices, %d instants, %d metadata; want 2, 2, 5\n%s",
			slices, instants, meta, buf.String())
	}
}

func TestChromeSinkKillWithoutDispatch(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.Emit(Event{Time: 7, Worker: 3, Kind: "kill", Period: 2, Length: 3})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	found := false
	for _, ev := range tr.TraceEvents {
		if ev["ph"] == "X" {
			found = true
			if ts := ev["ts"].(float64); ts != 4*chromeTsScale {
				t.Errorf("synthesized span ts = %g, want %g", ts, 4.0*chromeTsScale)
			}
		}
	}
	if !found {
		t.Error("kill without dispatch produced no slice")
	}
}

func TestChromeSinkEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(tr.TraceEvents) != 0 {
		t.Errorf("empty trace has %d events", len(tr.TraceEvents))
	}
}

func TestBufferSink(t *testing.T) {
	var a BufferSink
	for _, e := range sampleEvents() {
		a.Emit(e)
	}
	if len(a.Events) != len(sampleEvents()) {
		t.Errorf("buffered %d events, want %d", len(a.Events), len(sampleEvents()))
	}
	if a.Events[0].Kind != "dispatch" {
		t.Errorf("first buffered event = %+v", a.Events[0])
	}
}

func TestNilSinksAreSafe(t *testing.T) {
	var j *JSONLSink
	var c *ChromeSink
	j.Emit(Event{})
	c.Emit(Event{})
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}
