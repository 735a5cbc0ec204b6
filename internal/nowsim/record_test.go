package nowsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sched"
)

func TestRunEpisodeRecordedEventSequence(t *testing.T) {
	s := sched.MustNew(4, 3, 2)
	pol := NewSchedulePolicy(s, "rec")
	res, log := RunEpisodeRecorded(pol, 1, 8)
	// Expected: dispatch(0)@0, commit(0)@4, dispatch(1)@4, commit(1)@7,
	// dispatch(2)@7, kill(2)@8.
	wantKinds := []EventKind{EventDispatch, EventCommit, EventDispatch, EventCommit, EventDispatch, EventKill}
	if len(log) != len(wantKinds) {
		t.Fatalf("log has %d events: %v", len(log), log)
	}
	for i, k := range wantKinds {
		if log[i].Kind != k {
			t.Errorf("event %d = %v, want %v", i, log[i], k)
		}
	}
	if log[5].Time != 8 || log[5].Period != 2 {
		t.Errorf("kill event = %v", log[5])
	}
	// Result must agree with the unrecorded runner.
	plain := RunEpisode(NewSchedulePolicy(s, "plain"), 1, 8)
	//lint:allow floatcmp recording must not perturb the run: bit-identical
	if res.Work != plain.Work || res.Lost != plain.Lost || res.PeriodsCommitted != plain.PeriodsCommitted {
		t.Errorf("recorded result %+v differs from plain %+v", res, plain)
	}
}

func TestRunEpisodeRecordedVoluntaryEnd(t *testing.T) {
	s := sched.MustNew(2)
	_, log := RunEpisodeRecorded(NewSchedulePolicy(s, "rec"), 1, 100)
	last := log[len(log)-1]
	if last.Kind != EventVoluntaryEnd || last.Period != -1 {
		t.Errorf("last event = %v, want voluntary end", last)
	}
}

func TestEventStrings(t *testing.T) {
	//lint:allow determinism iteration order does not affect assertions
	for k, want := range map[EventKind]string{
		EventDispatch: "dispatch", EventCommit: "commit",
		EventKill: "kill", EventVoluntaryEnd: "voluntary-end",
		EventKind(42): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	ev := EpisodeEvent{Time: 1.5, Kind: EventCommit, Period: 3, Length: 4}
	if !strings.Contains(ev.String(), "commit") || !strings.Contains(ev.String(), "period=3") {
		t.Errorf("event string = %q", ev.String())
	}
}

func TestRunEpisodeRecordedMatchesPlainAtEdgeReclaims(t *testing.T) {
	// Schedule (4, 3, 2), c=1: boundaries at 4, 7, 9. The owner returns
	// only for a reclaim in [0, 1e300); the log ends in a kill exactly
	// when the result says the episode was reclaimed.
	s := sched.MustNew(4, 3, 2)
	for _, r := range []float64{-1, math.NaN(), 0, 7, 8, math.Inf(1)} {
		plain := RunEpisode(NewSchedulePolicy(s, "plain"), 1, r)
		res, log := RunEpisodeRecorded(NewSchedulePolicy(s, "rec"), 1, r)
		if res != plain {
			t.Errorf("reclaim %g: recorded %+v, plain %+v", r, res, plain)
		}
		if killed := log[len(log)-1].Kind == EventKill; killed != res.Reclaimed {
			t.Errorf("reclaim %g: log ends in kill=%v with Reclaimed=%v: %v", r, killed, res.Reclaimed, log)
		}
	}
}
