package nowsim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewWorkloadBounds(t *testing.T) {
	src := rng.New(1)
	for _, dist := range []DurationDist{DistUniform, DistLogNormal, DistBimodal, DistParetoCapped} {
		spec := WorkloadSpec{Tasks: 2000, Dist: dist, Lo: 0.5, Hi: 8, Mu: 0.5, Sigma: 0.8}
		pool, err := NewWorkload(spec, src)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		if pool.Remaining() != 2000 {
			t.Fatalf("%v: %d tasks", dist, pool.Remaining())
		}
		for _, task := range pool.queue {
			if task.Duration < 0.5 || task.Duration > 8 {
				t.Fatalf("%v: duration %g outside [0.5, 8]", dist, task.Duration)
			}
		}
	}
}

func TestNewWorkloadDistributionShapes(t *testing.T) {
	src := rng.New(2)
	// Bimodal: ~80% of tasks in the bottom quarter of the range.
	pool, err := NewWorkload(WorkloadSpec{Tasks: 10_000, Dist: DistBimodal, Lo: 1, Hi: 9}, src)
	if err != nil {
		t.Fatal(err)
	}
	small := 0
	for _, task := range pool.queue {
		if task.Duration < 3 {
			small++
		}
	}
	frac := float64(small) / 10_000
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("bimodal small-mode fraction = %g, want ~0.8", frac)
	}
	// Pareto: mean well above Lo but median close to it.
	pool2, err := NewWorkload(WorkloadSpec{Tasks: 10_000, Dist: DistParetoCapped, Lo: 1, Hi: 100}, src)
	if err != nil {
		t.Fatal(err)
	}
	mean := remainingWork(pool2) / 10_000
	if mean < 1.5 || mean > 4 {
		t.Errorf("pareto mean = %g", mean)
	}
}

func TestNewWorkloadErrors(t *testing.T) {
	src := rng.New(3)
	if _, err := NewWorkload(WorkloadSpec{Tasks: -1, Dist: DistUniform, Lo: 1, Hi: 2}, src); err == nil {
		t.Error("negative tasks accepted")
	}
	if _, err := NewWorkload(WorkloadSpec{Tasks: 1, Dist: DistUniform, Lo: 0, Hi: 2}, src); err == nil {
		t.Error("zero Lo accepted")
	}
	if _, err := NewWorkload(WorkloadSpec{Tasks: 1, Dist: DistUniform, Lo: 3, Hi: 2}, src); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestDurationDistStrings(t *testing.T) {
	names := map[DurationDist]string{
		DistUniform: "uniform", DistLogNormal: "lognormal",
		DistBimodal: "bimodal", DistParetoCapped: "pareto-capped",
		DurationDist(99): "unknown",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
}

func TestTakeBundleBestFitPacksTighter(t *testing.T) {
	// Queue: 7, 2, 5, 3 with budget 10. FIFO takes 7+2=9 (5 doesn't
	// fit); best-fit takes 7+3 = 10 exactly.
	mk := func() *TaskPool {
		p := &TaskPool{}
		for i, d := range []float64{7, 2, 5, 3} {
			p.Push(Task{ID: i, Duration: d})
		}
		return p
	}
	fifoPool := mk()
	_, fifoUsed := fifoPool.TakeBundle(10)
	bfPool := mk()
	bundle, bfUsed := bfPool.TakeBundleBestFit(10, 0)
	if bfUsed <= fifoUsed {
		t.Errorf("best-fit used %g, FIFO used %g", bfUsed, fifoUsed)
	}
	if math.Abs(bfUsed-10) > 1e-12 || len(bundle) != 2 {
		t.Errorf("best-fit bundle = %v (%g)", bundle, bfUsed)
	}
	// Remaining queue preserved in order: 2, 5.
	if bfPool.Remaining() != 2 || bfPool.queue[0].Duration != 2 || bfPool.queue[1].Duration != 5 {
		t.Errorf("best-fit queue after = %v", bfPool.queue)
	}
	if math.Abs(remainingWork(bfPool)-7) > 1e-12 {
		t.Errorf("remaining work = %g", remainingWork(bfPool))
	}
}

func TestTakeBundleBestFitEmptyAndOversized(t *testing.T) {
	p := &TaskPool{}
	if b, used := p.TakeBundleBestFit(10, 8); b != nil || used != 0 {
		t.Error("empty pool returned a bundle")
	}
	p.Push(Task{ID: 0, Duration: 50})
	if b, _ := p.TakeBundleBestFit(10, 8); b != nil {
		t.Error("oversized task packed")
	}
	if p.Remaining() != 1 {
		t.Error("oversized task lost from queue")
	}
}

func TestTakeBundleBestFitWindowRespected(t *testing.T) {
	// With window 2 the best-fit may only see the first two tasks.
	p := &TaskPool{}
	for i, d := range []float64{2, 3, 10} {
		p.Push(Task{ID: i, Duration: d})
	}
	bundle, used := p.TakeBundleBestFit(10, 2)
	if used != 5 || len(bundle) != 2 {
		t.Errorf("window violated: bundle %v used %g", bundle, used)
	}
}
