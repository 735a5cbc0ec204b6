package nowsim

import (
	"math"
	"testing"

	"repro/internal/sched"
)

// The episode loop is a //cs:hotpath root held to zero allocations;
// these tests pin that at runtime. The engine is not a root (only the
// farm runs on it), but its steady state allocates nothing either.

// TestEngineSteadyStateAllocs: once the free list and the inline boot
// array are primed, a schedule/fire cycle allocates nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	var eng Engine
	nop := func() {}
	// Prime: first events and any queue growth allocate once.
	eng.After(1, nop)
	eng.RunAll()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			eng.After(1, nop)
			eng.Step()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule/fire cycle allocates %.2f/run, want 0", avg)
	}
}

// TestEpisodeAllocsConstantInPeriods: an episode allocates nothing,
// however many periods it plays — with or without an event hook.
func TestEpisodeAllocsConstantInPeriods(t *testing.T) {
	periods := make([]float64, 1024)
	for i := range periods {
		periods[i] = 2
	}
	s, err := sched.New(periods...)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewSchedulePolicy(s, "alloc-test")
	var res EpisodeResult
	avg := testing.AllocsPerRun(100, func() {
		res = RunEpisode(pol, 0.5, math.Inf(1))
	})
	if res.PeriodsCommitted != 1024 {
		t.Fatalf("episode committed %d periods, want 1024", res.PeriodsCommitted)
	}
	if avg != 0 {
		t.Fatalf("1024-period episode allocates %.1f/run, want 0", avg)
	}
	events := 0
	count := func(EpisodeEvent) { events++ }
	avg = testing.AllocsPerRun(100, func() {
		events = 0
		res = runEpisode(pol, 0.5, math.Inf(1), count)
	})
	if events != 2*1024+1 {
		t.Fatalf("hooked episode emitted %d events, want %d", events, 2*1024+1)
	}
	if avg != 0 {
		t.Fatalf("hooked 1024-period episode allocates %.1f/run, want 0", avg)
	}
}
