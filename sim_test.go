package cyclesteal

import (
	"context"
	"math"
	"testing"

	"repro/internal/nowsim"
)

func TestSimulationFacadeEndToEnd(t *testing.T) {
	life, err := UniformRisk(200)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(life, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Single-episode wrappers.
	pol := NewSchedulePolicy(plan.Schedule, "facade-test")
	res := RunEpisode(pol, 1, 150)
	if !(res.Work > 0) {
		t.Errorf("episode work = %g", res.Work)
	}
	fixed := NewFixedChunkPolicy(10)
	if r := RunEpisode(fixed, 1, 35); r.PeriodsCommitted != 3 {
		t.Errorf("fixed policy committed %d periods, want 3", r.PeriodsCommitted)
	}
	prog, err := NewProgressivePolicy(life, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := RunEpisode(prog, 1, 150); !(r.Work > 0) {
		t.Errorf("progressive episode work = %g", r.Work)
	}

	// Task-level wrappers.
	pool, err := NewUniformTasks(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	tres := RunTaskEpisode(NewSchedulePolicy(plan.Schedule, "tasks"), pool, 1, 150)
	if tres.TasksCompleted == 0 {
		t.Error("no tasks completed")
	}
	rpool, err := NewRandomTasks(50, 1, 3, NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if rpool.Remaining() != 50 {
		t.Error("random pool size")
	}

	// The facade is MonteCarloCtx on the same seed, bit for bit.
	mean, ci := SimulateEpisodes(plan.Schedule, life, 1, 5000, 9)
	want, err := nowsim.MonteCarloCtx(context.Background(), NewSchedulePolicy(plan.Schedule, "mc"), LifeOwner{Life: life}, 1, 5000, 9, nowsim.Obs{})
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow floatcmp the facade must be MonteCarloCtx exactly
	if mean != want.Work.Mean || ci != want.Work.CI95 {
		t.Errorf("SimulateEpisodes = (%g, %g), MonteCarloCtx = (%g, %g)", mean, ci, want.Work.Mean, want.Work.CI95)
	}
}

func TestFarmFacade(t *testing.T) {
	life, _ := UniformRisk(150)
	plan, err := Plan(life, 1)
	if err != nil {
		t.Fatal(err)
	}
	workers := []Worker{{
		ID:            0,
		Owner:         LifeOwner{Life: life},
		PolicyFactory: func() Policy { return NewSchedulePolicy(plan.Schedule, "farm") },
	}}
	pool, _ := NewUniformTasks(100, 2)
	res, err := RunFarm(FarmConfig{Workers: workers, Overhead: 1, Seed: 4, MaxTime: 1e6}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.TasksCompleted != 100 {
		t.Errorf("farm result: %+v", res)
	}
}

func TestCheckpointFacade(t *testing.T) {
	failure, _ := HalfLife(40)
	res, err := RunCheckpointed(CheckpointConfig{
		TotalWork:     100,
		SaveCost:      1,
		Failure:       failure,
		PolicyFactory: func() Policy { return NewFixedChunkPolicy(9) },
	}, NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Makespan < 100 {
		t.Errorf("checkpoint result: %+v", res)
	}
}

func TestTraceFacade(t *testing.T) {
	truth, _ := UniformRisk(100)
	obs := SampleAbsences(truth, 1500, NewRand(8))
	fit, err := FitLifeFromTrace(obs, 24)
	if err != nil {
		t.Fatal(err)
	}
	if p := fit.P(50); math.Abs(p-0.5) > 0.06 {
		t.Errorf("fitted P(50) = %g", p)
	}
}

func TestOptimalForFacade(t *testing.T) {
	cases := []Life{}
	u, _ := UniformRisk(300)
	h, _ := HalfLife(24)
	d, _ := DoublingRisk(48)
	p, _ := PolynomialRisk(2, 300)
	cases = append(cases, u, h, d, p)
	for _, l := range cases {
		s, e, err := OptimalFor(l, 1)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if !(e > 0) || s.Len() == 0 {
			t.Errorf("%v: degenerate optimal (E=%g, m=%d)", l, e, s.Len())
		}
		// The guideline plan must be within a hair of the optimum.
		plan, err := Plan(l, 1)
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if plan.ExpectedWork < 0.99*e {
			t.Errorf("%v: guideline %g below 99%% of optimal %g", l, plan.ExpectedWork, e)
		}
	}
}
