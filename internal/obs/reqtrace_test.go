package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReqTraceNilSafe(t *testing.T) {
	var rt *ReqTrace
	rt.AddPhase(PhaseQueue, time.Now(), time.Millisecond)
	rt.StartPhase(PhaseCompute)() // must not panic
	rt.Annotate("k", "v")
	if got := rt.ServerTiming(); got != "" {
		t.Errorf("nil ServerTiming = %q, want empty", got)
	}
	if rec := rt.Finalize(200); rec.TraceID != "" {
		t.Errorf("nil Finalize returned non-zero record %+v", rec)
	}
	if rt.TraceID() != "" {
		t.Errorf("nil TraceID nonempty")
	}
	// Context helpers on an untraced context are inert too.
	ctx := context.Background()
	if ReqTraceFrom(ctx) != nil {
		t.Errorf("ReqTraceFrom(background) != nil")
	}
	StartPhase(ctx, PhaseCompute)("k", "v")
	Annotate(ctx, "k", "v")
	if ContextWithReqTrace(ctx, nil) != ctx {
		t.Errorf("ContextWithReqTrace(nil) must return ctx unchanged")
	}
}

func TestReqTraceBreakdownAndInvariant(t *testing.T) {
	rt := NewReqTrace("estimate")
	t0 := time.Now()
	rt.AddPhase(PhaseCache, t0, 10*time.Microsecond, "outcome", "miss")
	rt.AddPhase(PhaseQueue, t0, 2*time.Millisecond)
	rt.AddPhase(PhaseCompute, t0, 5*time.Millisecond, "episodes", "1000")
	rt.AddPhase(PhaseCompute, t0, time.Millisecond) // summed per name
	rt.Annotate("coalesced", "false")
	time.Sleep(10 * time.Millisecond) // ensure total dominates the phases
	rec := rt.Finalize(200)

	if rec.TraceID != rt.TraceID() || len(rec.TraceID) != 32 {
		t.Fatalf("record trace id %q", rec.TraceID)
	}
	if rec.Route != "estimate" || rec.Status != 200 {
		t.Fatalf("record route/status = %s/%d", rec.Route, rec.Status)
	}
	if rec.Cache != "miss" {
		t.Errorf("Cache = %q, want miss", rec.Cache)
	}
	if rec.Remote || rec.ParentID != "" {
		t.Errorf("local root marked remote: %+v", rec)
	}
	if got := rec.Breakdown["compute_ms"]; got < 5.9 || got > 6.1 {
		t.Errorf("compute_ms = %v, want ~6", got)
	}
	if got := rec.Breakdown["queue_ms"]; got < 1.9 || got > 2.1 {
		t.Errorf("queue_ms = %v, want ~2", got)
	}
	if rec.Attrs["coalesced"] != "false" {
		t.Errorf("attrs = %+v", rec.Attrs)
	}
	sum := rec.Breakdown["queue_ms"] + rec.Breakdown["coalesce_ms"] + rec.Breakdown["compute_ms"]
	if sum > rec.TotalMS {
		t.Errorf("attribution invariant violated: queue+coalesce+compute = %v > total %v", sum, rec.TotalMS)
	}
	if len(rec.Phases) != 4 {
		t.Errorf("phases = %d, want 4", len(rec.Phases))
	}
}

func TestReqTraceDropsPhasesAfterFinalize(t *testing.T) {
	rt := NewReqTrace("plan")
	end := rt.StartPhase(PhaseCompute)
	rec1 := rt.Finalize(200)
	end() // the leader finishing after the request ended must be dropped
	rt.AddPhase(PhaseQueue, time.Now(), time.Hour)
	rt.Annotate("late", "true")
	rec2 := rt.Finalize(200)
	if len(rec1.Phases) != 0 || len(rec2.Phases) != 0 {
		t.Fatalf("late phases leaked: %d then %d", len(rec1.Phases), len(rec2.Phases))
	}
	if rec2.Attrs["late"] != "" {
		t.Fatalf("late annotation leaked: %+v", rec2.Attrs)
	}
	sum := rec2.Breakdown["queue_ms"] + rec2.Breakdown["coalesce_ms"] + rec2.Breakdown["compute_ms"]
	if sum > rec2.TotalMS {
		t.Fatalf("invariant violated after late phases: %v > %v", sum, rec2.TotalMS)
	}
}

func TestReqTraceConcurrentPhases(t *testing.T) {
	rt := NewReqTrace("plan")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rt.StartPhase(PhaseCompute)("w", "x")
				rt.Annotate("k", "v")
				_ = rt.ServerTiming()
			}
		}()
	}
	wg.Wait()
	rec := rt.Finalize(200)
	if len(rec.Phases) != 800 {
		t.Fatalf("phases = %d, want 800", len(rec.Phases))
	}
}

func TestContinueReqTraceStitches(t *testing.T) {
	parent := NewTraceContext()
	rt := ContinueReqTrace(parent, "estimate")
	if rt.Context().TraceID != parent.TraceID {
		t.Fatalf("continued trace changed trace id")
	}
	if rt.Context().SpanID == parent.SpanID {
		t.Fatalf("continued trace reused parent span id")
	}
	rec := rt.Finalize(200)
	if !rec.Remote {
		t.Errorf("continued record not marked remote")
	}
	if rec.ParentID != parent.SpanIDString() {
		t.Errorf("ParentID = %q, want %q", rec.ParentID, parent.SpanIDString())
	}
}

func TestServerTimingFormat(t *testing.T) {
	rt := NewReqTrace("plan")
	t0 := time.Now()
	rt.AddPhase(PhaseCache, t0, 100*time.Microsecond, "outcome", "hit")
	st := rt.ServerTiming()
	if !strings.HasPrefix(st, "cache;dur=0.100;desc=hit") {
		t.Errorf("ServerTiming = %q", st)
	}
	if !strings.Contains(st, "total;dur=") {
		t.Errorf("ServerTiming missing total: %q", st)
	}
}
