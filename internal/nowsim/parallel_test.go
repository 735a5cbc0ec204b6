package nowsim

import (
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/sched"
)

func TestMonteCarloParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	l, _ := lifefn.NewUniform(200)
	s := sched.MustNew(30, 28, 26, 24)
	factory := func() Policy { return NewSchedulePolicy(s, "par") }
	owner := LifeOwner{Life: l}
	ref := MonteCarloParallel(factory, owner, 1, 20_000, 31, 2, Obs{})
	for _, workers := range []int{1 + 2, 4, 7, 16} {
		got := MonteCarloParallel(factory, owner, 1, 20_000, 31, workers, Obs{})
		//lint:allow floatcmp worker count must not change results: bit-identical
		if got.Work.Mean != ref.Work.Mean || got.Reclaimed != ref.Reclaimed {
			t.Errorf("workers=%d: mean %.12g vs %.12g, reclaimed %d vs %d",
				workers, got.Work.Mean, ref.Work.Mean, got.Reclaimed, ref.Reclaimed)
		}
		if math.Abs(got.Work.StdDev-ref.Work.StdDev) > 1e-9 {
			t.Errorf("workers=%d: stddev differs", workers)
		}
	}
}

func TestMonteCarloParallelMatchesAnalytic(t *testing.T) {
	l, _ := lifefn.NewUniform(500)
	s := sched.MustNew(40, 38, 36, 34, 32)
	factory := func() Policy { return NewSchedulePolicy(s, "par") }
	res := MonteCarloParallel(factory, LifeOwner{Life: l}, 1, 100_000, 7, 8, Obs{})
	analytic := sched.ExpectedWork(s, l, 1)
	z := math.Abs(res.Work.Mean-analytic) / res.Work.StdErr
	if z > 4.5 {
		t.Errorf("parallel MC mean %g vs analytic %g (z=%g)", res.Work.Mean, analytic, z)
	}
	if res.Episodes != 100_000 {
		t.Errorf("episodes = %d", res.Episodes)
	}
}

func TestMonteCarloParallelSmallN(t *testing.T) {
	l, _ := lifefn.NewUniform(50)
	s := sched.MustNew(10)
	factory := func() Policy { return NewSchedulePolicy(s, "par") }
	res := MonteCarloParallel(factory, LifeOwner{Life: l}, 1, 3, 1, 8, Obs{})
	if res.Episodes != 3 || res.Work.N != 3 {
		t.Errorf("small-n result: %+v", res)
	}
	// workers <= 1 falls back to the serial path.
	serial := MonteCarloParallel(factory, LifeOwner{Life: l}, 1, 100, 1, 1, Obs{})
	direct := serialMC(t, NewSchedulePolicy(s, "par"), LifeOwner{Life: l}, 1, 100, 1, Obs{})
	//lint:allow floatcmp serial fallback must match exactly
	if serial.Work.Mean != direct.Work.Mean {
		t.Error("workers=1 does not match serial MonteCarloCtx")
	}
}
