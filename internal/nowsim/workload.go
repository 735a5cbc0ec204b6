package nowsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// DurationDist names a task-duration distribution for workload
// generation. Data-parallel workloads differ sharply in duration
// spread — render frames are near-uniform, Monte-Carlo batches
// lognormal, search shards heavy-tailed — and the spread controls how
// much period capacity indivisibility strands (experiment E15).
type DurationDist int

const (
	// DistUniform draws durations uniformly from [Lo, Hi).
	DistUniform DurationDist = iota
	// DistLogNormal draws exp(N(Mu, Sigma)) clipped to [Lo, Hi].
	DistLogNormal
	// DistBimodal mixes two uniform modes: [Lo, Lo+(Hi-Lo)/4) with
	// probability 0.8 and [Hi-(Hi-Lo)/4, Hi) otherwise — many small
	// tasks plus an occasional heavy one.
	DistBimodal
	// DistParetoCapped draws a Pareto(alpha=1.5) tail scaled to Lo and
	// capped at Hi.
	DistParetoCapped
)

// String names the distribution.
func (d DurationDist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistLogNormal:
		return "lognormal"
	case DistBimodal:
		return "bimodal"
	case DistParetoCapped:
		return "pareto-capped"
	default:
		return "unknown"
	}
}

// WorkloadSpec describes a synthetic data-parallel workload.
type WorkloadSpec struct {
	Tasks int
	Dist  DurationDist
	// Lo and Hi bound the durations (semantics per distribution).
	Lo, Hi float64
	// Mu and Sigma parameterize DistLogNormal; ignored otherwise.
	Mu, Sigma float64
}

// NewWorkload generates a task pool from the spec using src.
func NewWorkload(spec WorkloadSpec, src *rng.Source) (*TaskPool, error) {
	if spec.Tasks < 0 {
		return nil, fmt.Errorf("nowsim: negative task count %d", spec.Tasks)
	}
	if !(spec.Lo > 0) || !(spec.Hi >= spec.Lo) {
		return nil, fmt.Errorf("nowsim: invalid duration range [%g, %g)", spec.Lo, spec.Hi)
	}
	draw := func() float64 {
		switch spec.Dist {
		case DistUniform:
			return src.Uniform(spec.Lo, spec.Hi)
		case DistLogNormal:
			v := src.LogNormal(spec.Mu, spec.Sigma)
			return clamp(v, spec.Lo, spec.Hi)
		case DistBimodal:
			quarter := (spec.Hi - spec.Lo) / 4
			if src.Float64() < 0.8 {
				return src.Uniform(spec.Lo, spec.Lo+quarter)
			}
			return src.Uniform(spec.Hi-quarter, spec.Hi)
		case DistParetoCapped:
			u := src.Float64Open()
			v := spec.Lo * math.Pow(u, -1/1.5)
			return clamp(v, spec.Lo, spec.Hi)
		default:
			return spec.Lo
		}
	}
	p := &TaskPool{}
	for i := 0; i < spec.Tasks; i++ {
		p.Push(Task{ID: i, Duration: draw()})
	}
	return p, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TakeBundleBestFit removes tasks filling budget as tightly as possible
// using the best-fit-decreasing heuristic over a bounded lookahead
// window of the queue (task durations are known, a model assumption, so
// the coordinator may pack smartly). Unlike TakeBundle it may take
// tasks out of FIFO order within the window; it never splits a task.
// It returns the bundle and its total duration.
//
// window bounds how many queued tasks are considered; when it is not
// positive, a window large enough to cover the budget several times
// over at the queue's head durations is chosen automatically.
func (p *TaskPool) TakeBundleBestFit(budget float64, window int) ([]Task, float64) {
	if window <= 0 {
		window = 64
		if len(p.queue) > 0 {
			if d := p.queue[0].Duration; d > 0 {
				if est := int(4*budget/d) + 8; est > window {
					window = est
				}
			}
		}
	}
	if window > len(p.queue) {
		window = len(p.queue)
	}
	if window == 0 {
		return nil, 0
	}
	// Candidate indices sorted by decreasing duration.
	idx := make([]int, window)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return p.queue[idx[a]].Duration > p.queue[idx[b]].Duration
	})
	used := 0.0
	taken := make(map[int]bool, window)
	var bundle []Task
	for _, i := range idx {
		d := p.queue[i].Duration
		if used+d <= budget+1e-12 {
			taken[i] = true
			used += d
			bundle = append(bundle, p.queue[i])
		}
	}
	if len(bundle) == 0 {
		return nil, 0
	}
	// Remove taken tasks from the queue, preserving order of the rest.
	rest := p.queue[:0:0]
	for i, task := range p.queue {
		if i < window && taken[i] {
			continue
		}
		rest = append(rest, task)
	}
	p.queue = rest
	return bundle, used
}
