package nowsim

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lifefn"
	"repro/internal/sched"
)

func TestRunEpisodeDeterministicAccounting(t *testing.T) {
	// Schedule (4, 3, 2), c=1, reclaim at 8: periods end at 4, 7, 9.
	// First two commit (3 + 2 work), third is killed (1 lost).
	s := sched.MustNew(4, 3, 2)
	res := RunEpisode(NewSchedulePolicy(s, ""), 1, 8)
	if res.Work != 5 {
		t.Errorf("work = %g, want 5", res.Work)
	}
	if res.Lost != 1 {
		t.Errorf("lost = %g, want 1", res.Lost)
	}
	if res.PeriodsCommitted != 2 || res.PeriodsDispatched != 3 {
		t.Errorf("periods = %d/%d", res.PeriodsCommitted, res.PeriodsDispatched)
	}
	if !res.Reclaimed || res.Duration != 8 {
		t.Errorf("reclaimed=%v duration=%g", res.Reclaimed, res.Duration)
	}
	if res.Overhead != 2 {
		t.Errorf("overhead = %g, want 2", res.Overhead)
	}
}

func TestRunEpisodeReclaimExactlyAtBoundaryLosesPeriod(t *testing.T) {
	// "If B is reclaimed by time T_k, the episode ends" — equality
	// loses the period.
	s := sched.MustNew(4)
	res := RunEpisode(NewSchedulePolicy(s, ""), 1, 4)
	if res.Work != 0 || res.Lost != 3 {
		t.Errorf("work=%g lost=%g, want 0/3", res.Work, res.Lost)
	}
}

func TestRunEpisodeVoluntaryEnd(t *testing.T) {
	s := sched.MustNew(2, 2)
	res := RunEpisode(NewSchedulePolicy(s, ""), 1, 100)
	if res.Reclaimed {
		t.Error("episode marked reclaimed after voluntary end")
	}
	if res.Work != 2 || res.Duration != 4 {
		t.Errorf("work=%g duration=%g", res.Work, res.Duration)
	}
}

func TestRunEpisodeInstantReclaim(t *testing.T) {
	s := sched.MustNew(5)
	res := RunEpisode(NewSchedulePolicy(s, ""), 1, 0)
	if res.Work != 0 {
		t.Errorf("work = %g", res.Work)
	}
	if !res.Reclaimed {
		t.Error("not marked reclaimed")
	}
}

func TestRunEpisodeMatchesRealizedWork(t *testing.T) {
	// The DES must agree with the analytic step function for arbitrary
	// reclaim times.
	s := sched.MustNew(7, 5.5, 4, 2.5)
	c := 1.5
	pol := NewSchedulePolicy(s, "")
	for _, r := range []float64{0, 1, 6.9, 7, 7.1, 12.4, 12.5, 12.6, 16.4, 16.55, 19, 100} {
		des := RunEpisode(pol, c, r)
		want := sched.RealizedWork(s, c, r)
		if math.Abs(des.Work-want) > 1e-12 {
			t.Errorf("reclaim %g: DES work %g, analytic %g", r, des.Work, want)
		}
	}
}

func TestMonteCarloMatchesExpectedWorkUniform(t *testing.T) {
	// E6 in miniature: the Monte-Carlo mean must converge to E(S; p).
	l, _ := lifefn.NewUniform(100)
	s := sched.MustNew(20, 19, 18, 17)
	analytic, mc, z := ValidateExpectedWork(s, l, 1, 60_000, 12345)
	if z > 4.5 {
		t.Errorf("MC mean %g vs analytic %g: z = %g", mc.Mean, analytic, z)
	}
}

func TestMonteCarloMatchesExpectedWorkGeomDecreasing(t *testing.T) {
	a := math.Pow(2, 1.0/16)
	l, _ := lifefn.NewGeomDecreasing(a)
	s := sched.MustNew(8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8)
	analytic, mc, z := ValidateExpectedWork(s, l, 1, 60_000, 999)
	if z > 4.5 {
		t.Errorf("MC mean %g vs analytic %g: z = %g", mc.Mean, analytic, z)
	}
}

func TestMonteCarloDeterministicAcrossRuns(t *testing.T) {
	l, _ := lifefn.NewUniform(50)
	s := sched.MustNew(10, 9)
	a := serialMC(t, NewSchedulePolicy(s, ""), LifeOwner{Life: l}, 1, 1000, 7, Obs{})
	b := serialMC(t, NewSchedulePolicy(s, ""), LifeOwner{Life: l}, 1, 1000, 7, Obs{})
	//lint:allow floatcmp same-seed determinism: bit-identical
	if a.Work.Mean != b.Work.Mean || a.Reclaimed != b.Reclaimed {
		t.Error("same seed produced different results")
	}
	c := serialMC(t, NewSchedulePolicy(s, ""), LifeOwner{Life: l}, 1, 1000, 8, Obs{})
	//lint:allow floatcmp different seeds must not collide bit-for-bit
	if a.Work.Mean == c.Work.Mean {
		t.Error("different seeds produced identical results")
	}
}

func TestProgressivePolicyInEpisode(t *testing.T) {
	l, _ := lifefn.NewUniform(200)
	pol, err := NewProgressivePolicy(l, 1, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := RunEpisode(pol, 1, 150)
	if !(res.Work > 0) {
		t.Errorf("progressive policy committed no work: %+v", res)
	}
	// Reusable across episodes.
	res2 := RunEpisode(pol, 1, 150)
	if math.Abs(res.Work-res2.Work) > 1e-9 {
		t.Errorf("progressive policy not reset between episodes: %g vs %g", res.Work, res2.Work)
	}
}

func TestFixedChunkPolicy(t *testing.T) {
	pol := &FixedChunkPolicy{Chunk: 5}
	res := RunEpisode(pol, 1, 17)
	// Periods end at 5, 10, 15; the one in flight at 17 dies.
	if res.Work != 12 {
		t.Errorf("work = %g, want 12", res.Work)
	}
	bad := &FixedChunkPolicy{}
	if r := RunEpisode(bad, 1, 17); r.Work != 0 {
		t.Errorf("zero chunk committed work %g", r.Work)
	}
}

func TestSchedulePolicyString(t *testing.T) {
	if NewSchedulePolicy(sched.MustNew(1), "x").String() != "x" {
		t.Error("named policy string")
	}
	if NewSchedulePolicy(sched.MustNew(1), "").String() != "schedule" {
		t.Error("default policy string")
	}
	if (&FixedChunkPolicy{Chunk: 2}).String() == "" {
		t.Error("fixed chunk string empty")
	}
}

// serialMC runs MonteCarloCtx to completion on a background context.
func serialMC(t testing.TB, policy Policy, owner Owner, c float64, n int, seed uint64, o Obs) MonteCarloResult {
	t.Helper()
	res, err := MonteCarloCtx(context.Background(), policy, owner, c, n, seed, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
