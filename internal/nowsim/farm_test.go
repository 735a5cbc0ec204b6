package nowsim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/rng"
	"repro/internal/sched"
)

func farmLife(t *testing.T, l float64) lifefn.Life {
	t.Helper()
	u, err := lifefn.NewUniform(l)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func guidelineFactory(t *testing.T, l lifefn.Life, c float64) func() Policy {
	t.Helper()
	pl, err := core.NewPlanner(l, c, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.PlanBest()
	if err != nil {
		t.Fatal(err)
	}
	return func() Policy { return NewSchedulePolicy(plan.Schedule, "guideline") }
}

func TestFarmDrainsPool(t *testing.T) {
	l := farmLife(t, 200)
	c := 1.0
	factory := guidelineFactory(t, l, c)
	workers := make([]Worker, 4)
	for i := range workers {
		workers[i] = Worker{
			ID:            i,
			Owner:         LifeOwner{Life: l},
			BusySampler:   func(r *rng.Source) float64 { return r.Uniform(5, 20) },
			PolicyFactory: factory,
		}
	}
	pool, _ := NewUniformTasks(500, 2)
	res, err := RunFarm(FarmConfig{Workers: workers, Overhead: c, Seed: 42, MaxTime: 1e6}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatalf("pool not drained: %d tasks left", pool.Remaining())
	}
	if res.TasksCompleted != 500 {
		t.Errorf("completed %d tasks, want 500", res.TasksCompleted)
	}
	if math.Abs(res.CommittedWork-1000) > 1e-6 {
		t.Errorf("committed work = %g, want 1000", res.CommittedWork)
	}
	if res.Makespan <= 0 || res.Makespan > 1e6 {
		t.Errorf("makespan = %g", res.Makespan)
	}
	if eff := res.Efficiency(); eff <= 0 || eff > 1 {
		t.Errorf("efficiency = %g", eff)
	}
	// Per-worker stats must sum to the totals.
	var sumTasks int
	var sumWork float64
	for _, w := range res.PerWorker {
		sumTasks += w.TasksCompleted
		sumWork += w.CommittedWork
	}
	if sumTasks != res.TasksCompleted || math.Abs(sumWork-res.CommittedWork) > 1e-9 {
		t.Errorf("per-worker sums diverge: %d/%g vs %d/%g",
			sumTasks, sumWork, res.TasksCompleted, res.CommittedWork)
	}
}

func TestFarmDeterministic(t *testing.T) {
	l := farmLife(t, 100)
	factory := guidelineFactory(t, l, 1)
	mk := func() ([]Worker, *TaskPool) {
		ws := make([]Worker, 2)
		for i := range ws {
			ws[i] = Worker{ID: i, Owner: LifeOwner{Life: l}, PolicyFactory: factory}
		}
		pool, _ := NewUniformTasks(100, 3)
		return ws, pool
	}
	w1, p1 := mk()
	r1, err := RunFarm(FarmConfig{Workers: w1, Overhead: 1, Seed: 5}, p1)
	if err != nil {
		t.Fatal(err)
	}
	w2, p2 := mk()
	r2, err := RunFarm(FarmConfig{Workers: w2, Overhead: 1, Seed: 5}, p2)
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow floatcmp same-seed determinism: bit-identical
	if r1.Makespan != r2.Makespan || r1.LostWork != r2.LostWork || r1.Episodes != r2.Episodes {
		t.Error("same seed produced different farm runs")
	}
}

func TestFarmRespectsMaxTime(t *testing.T) {
	// One worker, owner returns almost immediately, enormous job: the
	// run must stop at MaxTime undrained rather than spin forever.
	short, _ := lifefn.NewUniform(3)
	factory := func() Policy { return &FixedChunkPolicy{Chunk: 2} }
	workers := []Worker{{
		ID:            0,
		Owner:         LifeOwner{Life: short},
		BusySampler:   func(r *rng.Source) float64 { return 1 },
		PolicyFactory: factory,
	}}
	pool, _ := NewUniformTasks(100000, 1)
	res, err := RunFarm(FarmConfig{Workers: workers, Overhead: 1, Seed: 1, MaxTime: 500}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drained {
		t.Error("impossible job reported drained")
	}
	if res.Makespan > 500+1e-9 {
		t.Errorf("makespan %g exceeds MaxTime", res.Makespan)
	}
}

func TestFarmGuidelineBeatsNaiveChunking(t *testing.T) {
	// End-to-end shape check: on identical workloads and owner
	// behaviour, the guideline policy should waste less borrowed time
	// than all-at-once chunking.
	l := farmLife(t, 200)
	c := 2.0
	run := func(factory func() Policy, seed uint64) FarmResult {
		workers := make([]Worker, 3)
		for i := range workers {
			workers[i] = Worker{
				ID:            i,
				Owner:         LifeOwner{Life: l},
				BusySampler:   func(r *rng.Source) float64 { return r.Uniform(10, 30) },
				PolicyFactory: factory,
			}
		}
		pool, _ := NewUniformTasks(800, 1)
		res, err := RunFarm(FarmConfig{Workers: workers, Overhead: c, Seed: seed, MaxTime: 1e6}, pool)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	guideline := run(guidelineFactory(t, l, c), 11)
	naive := run(func() Policy { return &FixedChunkPolicy{Chunk: 200} }, 11)
	if !guideline.Drained {
		t.Fatal("guideline farm failed to drain")
	}
	if naive.Drained && naive.Makespan < guideline.Makespan {
		t.Errorf("all-at-once chunking beat the guideline: %g < %g",
			naive.Makespan, guideline.Makespan)
	}
}

func TestFarmHeterogeneousSpeeds(t *testing.T) {
	// A 4x-faster worker must complete roughly 4x the task time of a
	// 1x worker under identical owner behaviour and policy.
	l := farmLife(t, 1000) // long lifespans: reclaim rarely interferes
	factory := func() Policy { return &FixedChunkPolicy{Chunk: 50} }
	workers := []Worker{
		{ID: 0, Owner: LifeOwner{Life: l}, PolicyFactory: factory, Speed: 1},
		{ID: 1, Owner: LifeOwner{Life: l}, PolicyFactory: factory, Speed: 4},
	}
	pool, _ := NewUniformTasks(2000, 1)
	res, err := RunFarm(FarmConfig{Workers: workers, Overhead: 1, Seed: 3, MaxTime: 1e6}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("pool not drained")
	}
	slow := res.PerWorker[0].CommittedWork
	fast := res.PerWorker[1].CommittedWork
	if fast < 2.5*slow {
		t.Errorf("4x worker committed %g vs 1x worker %g — speed not honored", fast, slow)
	}
}

func TestFarmRejectsBadConfig(t *testing.T) {
	pool, _ := NewUniformTasks(1, 1)
	if _, err := RunFarm(FarmConfig{}, pool); err == nil {
		t.Error("empty worker list accepted")
	}
	if _, err := RunFarm(FarmConfig{Workers: []Worker{{}}, Overhead: -1}, pool); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestOwnerStrings(t *testing.T) {
	u, _ := lifefn.NewUniform(10)
	if (LifeOwner{Life: u}).String() == "" {
		t.Error("empty life-owner string")
	}
}

func TestLifeOwnerSamplesWithinSupport(t *testing.T) {
	u, _ := lifefn.NewUniform(40)
	o := LifeOwner{Life: u}
	src := rng.New(9)
	for i := 0; i < 1000; i++ {
		r := o.ReclaimAfter(src)
		if r < 0 || r > 40 {
			t.Fatalf("reclaim %g outside [0, 40]", r)
		}
	}
}

var _ = sched.Schedule{} // keep sched import for helper clarity

func TestFarmTightPeriodsClampedBudget(t *testing.T) {
	// Periods barely above the overhead leave exactly t ⊖ c = 0.25 of
	// compute per dispatch, so the farm must still drain the pool one
	// task at a time without ever offering the pool a negative budget.
	l := farmLife(t, 200)
	c := 1.0
	workers := []Worker{{
		ID:            0,
		Owner:         LifeOwner{Life: l},
		BusySampler:   func(r *rng.Source) float64 { return r.Uniform(5, 20) },
		PolicyFactory: func() Policy { return tightPolicy{t: c + 0.25} },
	}}
	pool, err := NewUniformTasks(8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFarm(FarmConfig{Workers: workers, Overhead: c, Seed: 7, MaxTime: 1e6}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatalf("pool not drained: %d tasks left", pool.Remaining())
	}
	if res.TasksCompleted != 8 {
		t.Errorf("completed %d tasks, want 8", res.TasksCompleted)
	}
	if math.Abs(res.CommittedWork-2) > 1e-9 {
		t.Errorf("committed work = %g, want 2", res.CommittedWork)
	}
}
