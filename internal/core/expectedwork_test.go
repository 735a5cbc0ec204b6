package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lifefn"
	"repro/internal/rng"
	"repro/internal/sched"
)

// onePassLives is the corpus for ExpectedWorkFrom: lemma31Lives (the
// paper's families, their conditionals, E8's power laws with d > 1 and
// E14's mixtures) plus rescalings, the power laws with d <= 1, Weibull
// lives on either side of k = 1 and Func lives, one of them with a
// horizon below the overheads the tests use.
func onePassLives(t *testing.T) []lifefn.Life {
	t.Helper()
	lives := lemma31Lives(t)
	add := func(l lifefn.Life, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		lives = append(lives, l)
	}
	add(lifefn.NewScaled(mustUniform(100), 3))
	add(lifefn.NewScaled(mustGeomDec(math.Pow(2, 1.0/16)), 0.5))
	for _, d := range []float64{0.5, 1} {
		add(lifefn.NewPowerLaw(d))
	}
	for _, k := range []float64{0.5, 2} {
		add(lifefn.NewWeibull(k, 50))
	}
	lives = append(lives,
		lifefn.Func{
			PFunc: func(t float64) float64 {
				if t >= 200 {
					return 0
				}
				u := 1 - t/200
				return u * u
			},
			DerivFunc: func(t float64) float64 {
				if t >= 200 {
					return 0
				}
				return -(1 - t/200) / 100
			},
			Curvature: lifefn.Convex,
			Lifespan:  200,
			Name:      "func(1-t/200)^2",
		},
		lifefn.Func{
			PFunc:     func(t float64) float64 { return math.Exp(-t / 100) },
			DerivFunc: func(t float64) float64 { return -math.Exp(-t/100) / 100 },
			Curvature: lifefn.Convex,
			Lifespan:  0.25,
			Name:      "func(short horizon)",
		})
	return lives
}

// onePassT0s are the initial periods the bit-for-bit check probes on
// pl: the edges of the productive range, the bracket and the plan's own
// t0 where pl has them, points drawn from (c, span], and t0 at and past
// the horizon, +Inf and NaN.
func onePassT0s(pl *Planner, src *rng.Source) []float64 {
	c := pl.c
	span := lifefn.Span(pl.life, 1e-12)
	t0s := []float64{c / 2, c, math.Nextafter(c, math.Inf(1)), span, 2 * span, math.Inf(1), math.NaN()}
	if h := pl.life.Horizon(); !math.IsInf(h, 1) {
		t0s = append(t0s, h, math.Nextafter(h, 0))
	}
	if br, err := pl.T0Bracket(); err == nil {
		t0s = append(t0s, br.Lo, br.Hi)
		if plan, err := pl.PlanBest(); err == nil {
			t0s = append(t0s, plan.T0)
		}
	}
	for i := 0; i < 6; i++ {
		t0s = append(t0s, src.Uniform(c, span))
	}
	return t0s
}

// checkOnePass holds ExpectedWorkFrom(t0) to sched.ExpectedWork of
// GenerateFrom(t0) bit for bit, and the error of one to the error of the
// other. The E that generate returns while keeping the schedule, which
// PlanBest reports, is held to the same bits.
func checkOnePass(t *testing.T, pl *Planner, t0 float64) {
	t.Helper()
	got, err := pl.ExpectedWorkFrom(t0)
	s, refErr := pl.GenerateFrom(t0)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%s c=%g max=%d t0=%g: ExpectedWorkFrom error %v, GenerateFrom error %v", pl.life, pl.c, pl.opt.MaxPeriods, t0, err, refErr)
	}
	if err != nil {
		return
	}
	want := sched.ExpectedWork(s, pl.life, pl.c)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s c=%g max=%d t0=%.17g: ExpectedWorkFrom = %.17g, two-pass %.17g", pl.life, pl.c, pl.opt.MaxPeriods, t0, got, want)
	}
	if _, kept, _, _ := pl.generate(t0, true); math.Float64bits(kept) != math.Float64bits(want) {
		t.Errorf("%s c=%g max=%d t0=%.17g: E while keeping the schedule = %.17g, two-pass %.17g", pl.life, pl.c, pl.opt.MaxPeriods, t0, kept, want)
	}
}

// TestExpectedWorkFromMatchesTwoPass runs checkOnePass over the corpus
// at three overheads and four period caps, the smallest of which cut
// the recurrence before it evaluates p at the last boundary.
func TestExpectedWorkFromMatchesTwoPass(t *testing.T) {
	src := rng.New(1)
	for _, l := range onePassLives(t) {
		for _, c := range []float64{0.5, 1, 3} {
			for _, maxPeriods := range []int{1, 2, 5, 0} {
				pl, err := NewPlanner(l, c, PlanOptions{MaxPeriods: maxPeriods})
				if err != nil {
					t.Fatal(err)
				}
				for _, t0 := range onePassT0s(pl, src) {
					checkOnePass(t, pl, t0)
				}
			}
		}
	}
}

// callLog is a life function that logs the times at which P and Deriv
// are evaluated, in call order. Embedding lifefn.Counting keeps the
// wrapped life's closed-form p⁻¹, so the planner takes the same path
// on it as on the bare life.
type callLog struct {
	lifefn.Counting
	calls []call
}

type call struct {
	deriv bool
	t     float64
}

func (l *callLog) P(t float64) float64 {
	l.calls = append(l.calls, call{false, t})
	return l.Counting.P(t)
}

func (l *callLog) Deriv(t float64) float64 {
	l.calls = append(l.calls, call{true, t})
	return l.Counting.Deriv(t)
}

// TestExpectedWorkFromEvaluatesPOncePerBoundary reads where
// ExpectedWorkFrom evaluates p. At each boundary T_k where the
// recurrence goes on to evaluate p′ (so T_k is known exactly), p must
// be evaluated at T_k, and then once more, at the elapsed sum where
// sched.ExpectedWork evaluates it, only when that sum is not T_k. The
// corpus must reach both branches, and the pass must evaluate p fewer
// times than generation plus sched.ExpectedWork.
func TestExpectedWorkFromEvaluatesPOncePerBoundary(t *testing.T) {
	src := rng.New(1)
	reused, reevaluated := 0, 0
	for _, base := range onePassLives(t) {
		for _, c := range []float64{0.5, 1, 3} {
			log := &callLog{Counting: lifefn.Counting{Life: base, Evals: new(int64)}}
			pl, err := NewPlanner(log, c, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			span := lifefn.Span(base, 1e-12)
			for i := 0; i < 10; i++ {
				// Log-uniform in (c, span): mostly short first periods,
				// whose schedules are long.
				t0 := c * math.Pow(span/c, src.Float64Open())
				r, e := checkPCalls(t, pl, log, t0)
				reused += r
				reevaluated += e
			}
		}
	}
	if reused == 0 || reevaluated == 0 {
		t.Errorf("corpus reached the reuse branch at %d boundaries and the re-evaluation branch at %d; want both", reused, reevaluated)
	}
	t.Logf("p(T_k) reused at %d boundaries, re-evaluated at %d", reused, reevaluated)
}

// checkPCalls checks, for one t0, the calls that
// TestExpectedWorkFromEvaluatesPOncePerBoundary describes, and returns
// the number of boundaries at which p(T_k) was reused and re-evaluated.
func checkPCalls(t *testing.T, pl *Planner, log *callLog, t0 float64) (reused, reevaluated int) {
	t.Helper()
	log.calls = log.calls[:0]
	s, err := pl.GenerateFrom(t0)
	if err != nil {
		return 0, 0
	}
	generated := 0
	for _, c := range log.calls {
		if !c.deriv {
			generated++
		}
	}
	log.calls = log.calls[:0]
	sched.ExpectedWork(s, log, pl.c)
	elapsed := make([]float64, len(log.calls))
	for i, c := range log.calls {
		elapsed[i] = c.t
	}
	log.calls = log.calls[:0]
	if _, err := pl.ExpectedWorkFrom(t0); err != nil {
		t.Fatalf("%s t0=%g: %v", log.Life, t0, err)
	}
	pCalls, k := 0, 0
	for i, c := range log.calls {
		if !c.deriv {
			pCalls++
			continue
		}
		// c.t is T_k; the call before it must be p at the elapsed sum,
		// and, when that is not T_k, the one before that p at T_k.
		before := log.calls[i-1]
		if before.deriv || math.Float64bits(before.t) != math.Float64bits(elapsed[k]) {
			t.Fatalf("%s t0=%g: p′ at boundary %d (%.17g) follows %+v, want p at the elapsed sum %.17g", log.Life, t0, k, c.t, before, elapsed[k])
		}
		if math.Float64bits(c.t) == math.Float64bits(elapsed[k]) {
			reused++
		} else {
			reevaluated++
			if first := log.calls[i-2]; first.deriv || math.Float64bits(first.t) != math.Float64bits(c.t) {
				t.Fatalf("%s t0=%g: re-evaluation at boundary %d follows %+v, want p at T_k = %.17g", log.Life, t0, k, first, c.t)
			}
		}
		k++
	}
	if pCalls >= generated+len(elapsed) {
		t.Errorf("%s t0=%g: one pass evaluates p %d times, generation plus sched.ExpectedWork %d+%d", log.Life, t0, pCalls, generated, len(elapsed))
	}
	return reused, reevaluated
}

// FuzzExpectedWorkFrom draws a life (one of the four paper families, a
// power law or a Weibull life, optionally conditioned on survival to
// part of its span), an overhead, a period cap and t0, and holds
// ExpectedWorkFrom to the two-pass E bit for bit. A t0 argument that is
// NaN or infinite is passed through as it is.
func FuzzExpectedWorkFrom(f *testing.F) {
	f.Add(uint8(0), 0.75, uint8(1), 0.5, 0.0, 0.05, uint8(0))
	f.Add(uint8(1), 0.9, uint8(3), 0.1, 0.3, 0.2, uint8(5))
	f.Add(uint8(2), 0.5, uint8(0), 0.9, 0.0, 0.01, uint8(1))
	f.Add(uint8(3), 0.4, uint8(0), 0.6, 0.5, 0.9, uint8(2))
	f.Add(uint8(4), 0.1, uint8(0), 0.5, 0.0, 0.001, uint8(0))
	f.Add(uint8(5), 0.6, uint8(2), 0.3, 0.7, 0.3, uint8(0))
	f.Add(uint8(8), 0.6, uint8(0), 0.3, 0.7, math.Inf(1), uint8(0))
	f.Fuzz(func(t *testing.T, family uint8, scale float64, d uint8, overhead, tauFrac, t0Frac float64, maxPeriods uint8) {
		s, okS := unitFrac(scale)
		o, okO := unitFrac(overhead)
		tf, okT := unitFrac(tauFrac)
		if !okS || !okO || !okT {
			return
		}
		// Lifespans and half-lives from 1 to 10^4, power-law exponents
		// from 0.1 to 4, Weibull shapes from 0.1 to 10 and overheads
		// from 0.01 to 10, log-uniformly.
		size := math.Pow(10, 4*s)
		c := math.Pow(10, 3*o-2)
		var l lifefn.Life
		var err error
		switch family % 6 {
		case 0:
			l, err = lifefn.NewUniform(size)
		case 1:
			l, err = lifefn.NewPoly(1+int(d%8), size)
		case 2:
			l, err = lifefn.NewGeomDecreasing(math.Pow(2, 1/size))
		case 3:
			l, err = lifefn.NewGeomIncreasing(size)
		case 4:
			l, err = lifefn.NewPowerLaw(0.1 * math.Pow(40, s))
		default:
			l, err = lifefn.NewWeibull(0.1*math.Pow(100, float64(d)/255), size)
		}
		if err != nil {
			return
		}
		if family&8 != 0 {
			if l, err = lifefn.NewConditional(l, tf*lifefn.Span(l, 1e-6)); err != nil {
				return
			}
		}
		pl, err := NewPlanner(l, c, PlanOptions{MaxPeriods: int(maxPeriods % 8)})
		if err != nil {
			return
		}
		t0 := t0Frac
		if u, ok := unitFrac(t0Frac); ok {
			// t0 from c/2 to 1.5 times the span.
			t0 = c/2 + u*(1.5*lifefn.Span(l, 1e-12)-c/2)
		}
		t.Run(fmt.Sprintf("%s/c=%g/t0=%g", l, c, t0), func(t *testing.T) { checkOnePass(t, pl, t0) })
	})
}
