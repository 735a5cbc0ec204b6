package nowsim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/lifefn"
	"repro/internal/obs"
)

func cancelTestOwner(t *testing.T) Owner {
	t.Helper()
	l, err := lifefn.NewUniform(200)
	if err != nil {
		t.Fatal(err)
	}
	return LifeOwner{Life: l}
}

// An uncancelled run under a live, cancellable context must be
// bit-identical to a run under context.Background: the cancellation
// checks change neither the statistics nor the trace events.
func TestMonteCarloCtxMatchesMonteCarlo(t *testing.T) {
	owner := cancelTestOwner(t)
	pol := func() Policy { return &FixedChunkPolicy{Chunk: 15} }
	var a, b obs.BufferSink
	want := serialMC(t, pol(), owner, 1, 5000, 42, Obs{Sink: &a})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := MonteCarloCtx(ctx, pol(), owner, 1, 5000, 42, Obs{Sink: &b})
	if err != nil {
		t.Fatalf("MonteCarloCtx: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results differ:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("traces differ: %d vs %d events", len(a.Events), len(b.Events))
	}
}

// A request-traced context must not change the simulation one bit, and
// the run must appear in the trace as an "mc" phase annotated with the
// episode count.
func TestMonteCarloCtxRecordsTracePhase(t *testing.T) {
	owner := cancelTestOwner(t)
	pol := func() Policy { return &FixedChunkPolicy{Chunk: 15} }
	want := serialMC(t, pol(), owner, 1, 5000, 42, Obs{})

	rt := obs.NewReqTrace("estimate")
	ctx := obs.ContextWithReqTrace(context.Background(), rt)
	got, err := MonteCarloCtx(ctx, pol(), owner, 1, 5000, 42, Obs{})
	if err != nil {
		t.Fatalf("MonteCarloCtx: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tracing changed the result:\n got %+v\nwant %+v", got, want)
	}
	rec := rt.Finalize(200)
	if !(rec.Breakdown["mc_ms"] >= 0) {
		t.Fatalf("trace missing mc phase: %+v", rec.Breakdown)
	}
	found := false
	for _, p := range rec.Phases {
		if p.Name == "mc" {
			found = true
			if p.Attrs["episodes"] != "5000" {
				t.Errorf("mc phase episodes = %q, want 5000", p.Attrs["episodes"])
			}
			if p.Attrs["cancelled"] != "" {
				t.Errorf("uncancelled run marked cancelled: %+v", p.Attrs)
			}
		}
	}
	if !found {
		t.Fatalf("no mc phase recorded: %+v", rec.Phases)
	}

	// A cancelled run annotates the partial count and the cancellation.
	rt2 := obs.NewReqTrace("estimate")
	cctx, cancel := context.WithCancel(obs.ContextWithReqTrace(context.Background(), rt2))
	cancel()
	if _, err := MonteCarloCtx(cctx, pol(), owner, 1, 5000, 42, Obs{}); err == nil {
		t.Fatal("expected a context error")
	}
	rec2 := rt2.Finalize(504)
	for _, p := range rec2.Phases {
		if p.Name == "mc" {
			if p.Attrs["cancelled"] != "true" || p.Attrs["episodes"] != "0" {
				t.Errorf("cancelled mc phase attrs = %+v", p.Attrs)
			}
		}
	}
}

// A context cancelled before the run starts stops it at the first
// stride check, reporting the context error and zero episodes.
func TestMonteCarloCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	owner := cancelTestOwner(t)
	res, err := MonteCarloCtx(ctx, &FixedChunkPolicy{Chunk: 15}, owner, 1, 5000, 1, Obs{})
	if err == nil {
		t.Fatal("expected a context error")
	}
	if res.Episodes != 0 {
		t.Errorf("episodes = %d, want 0", res.Episodes)
	}
}

// A deadline that expires mid-run yields a partial result: fewer
// episodes than requested, a multiple of the check stride, and the
// partial statistics still populated.
func TestMonteCarloCtxDeadlineMidRun(t *testing.T) {
	owner := cancelTestOwner(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	// Large n so the deadline reliably lands mid-run.
	res, err := MonteCarloCtx(ctx, &FixedChunkPolicy{Chunk: 15}, owner, 1, 200_000_000, 1, Obs{})
	if err == nil {
		t.Skip("run finished before the cancel landed; nothing to assert")
	}
	if res.Episodes <= 0 || res.Episodes >= 200_000_000 {
		t.Errorf("episodes = %d, want a partial count", res.Episodes)
	}
	if res.Episodes%cancelCheckStride != 0 {
		t.Errorf("episodes = %d, want a multiple of the stride %d", res.Episodes, cancelCheckStride)
	}
	if res.Work.N != res.Episodes {
		t.Errorf("work summary covers %d episodes, want %d", res.Work.N, res.Episodes)
	}
}
