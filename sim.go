package cyclesteal

import (
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/lifefn"
	"repro/internal/nowsim"
	"repro/internal/optimal"
	"repro/internal/rng"
	"repro/internal/trace"
)

// This file re-exports the simulation, trace and application layers so
// downstream users can drive the full system through one import.

// Simulation types.
type (
	// Rand is the library's deterministic random source.
	Rand = rng.Source
	// Task is one indivisible unit of a data-parallel job.
	Task = nowsim.Task
	// TaskPool holds a data-parallel job's outstanding tasks.
	TaskPool = nowsim.TaskPool
	// Worker describes one borrowable workstation in a farm.
	Worker = nowsim.Worker
	// FarmConfig configures a multi-workstation farm run.
	FarmConfig = nowsim.FarmConfig
	// FarmResult summarizes a farm run.
	FarmResult = nowsim.FarmResult
	// Owner models when a workstation's owner reclaims it.
	Owner = nowsim.Owner
	// LifeOwner reclaims according to a life function.
	LifeOwner = nowsim.LifeOwner
	// TaskEpisodeResult is the outcome of a task-level episode.
	TaskEpisodeResult = nowsim.TaskEpisodeResult
	// CheckpointConfig configures the fault-prone checkpointing
	// application (the paper's Section 1 Remark).
	CheckpointConfig = faultsim.Config
	// CheckpointResult is one fault-prone run's outcome.
	CheckpointResult = faultsim.Result
	// Observation is one recorded owner absence (possibly censored).
	Observation = trace.Observation
)

// NewRand returns a deterministic random source for the simulators.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewSchedulePolicy wraps a schedule as an episode policy.
func NewSchedulePolicy(s Schedule, name string) Policy {
	return nowsim.NewSchedulePolicy(s, name)
}

// NewFixedChunkPolicy dispatches constant-size periods.
func NewFixedChunkPolicy(chunk float64) Policy {
	return &nowsim.FixedChunkPolicy{Chunk: chunk}
}

// NewProgressivePolicy re-plans each period from conditional survival
// (the paper's Section 6 regimen).
func NewProgressivePolicy(l Life, c float64) (Policy, error) {
	return nowsim.NewProgressivePolicy(l, c, core.PlanOptions{})
}

// RunEpisode plays one episode of a policy against a known reclaim
// time.
func RunEpisode(p Policy, c, reclaim float64) EpisodeResult {
	return nowsim.RunEpisode(p, c, reclaim)
}

// RunTaskEpisode plays one episode dispatching indivisible tasks from
// a pool.
func RunTaskEpisode(p Policy, pool *TaskPool, c, reclaim float64) TaskEpisodeResult {
	return nowsim.RunTaskEpisode(p, pool, c, reclaim)
}

// NewUniformTasks builds a pool of n identical tasks of duration d.
func NewUniformTasks(n int, d float64) (*TaskPool, error) {
	return nowsim.NewUniformTasks(n, d)
}

// NewRandomTasks builds a pool of n tasks with uniform durations in
// [lo, hi).
func NewRandomTasks(n int, lo, hi float64, src *Rand) (*TaskPool, error) {
	return nowsim.NewRandomTasks(n, lo, hi, src)
}

// RunFarm executes a data-parallel job on a farm of borrowed
// workstations.
func RunFarm(cfg FarmConfig, pool *TaskPool) (FarmResult, error) {
	return nowsim.RunFarm(cfg, pool)
}

// RunCheckpointed executes one fault-prone computation (the Remark's
// "scheduling saves" application).
func RunCheckpointed(cfg CheckpointConfig, src *Rand) (CheckpointResult, error) {
	return faultsim.Run(cfg, src)
}

// SampleAbsences draws owner-absence observations whose survival is l.
func SampleAbsences(l Life, n int, src *Rand) []Observation {
	return trace.SampleAbsences(l, n, src)
}

// FitLifeFromTrace estimates a differentiable life function from
// absence observations (product-limit estimate + monotone smoothing).
func FitLifeFromTrace(obs []Observation, knots int) (Life, error) {
	return trace.FitLife(obs, trace.FitOptions{Knots: knots})
}

// OptimalFor returns the provably optimal schedule of [BCLR97] for the
// three scenarios it covers, and a scenario-agnostic numerical optimum
// otherwise. The second return is the optimal expected work.
func OptimalFor(l Life, c float64) (Schedule, float64, error) {
	var (
		res optimal.Result
		err error
	)
	switch f := l.(type) {
	case lifefn.Uniform:
		res, err = optimal.Uniform(f, c)
	case lifefn.GeomDecreasing:
		res, err = optimal.GeomDecreasing(f, c, 0, 0)
	case lifefn.GeomIncreasing:
		res, err = optimal.GeomIncreasing(f, c)
	default:
		res, err = optimal.GroundTruth(l, c, optimal.GroundTruthOptions{})
	}
	if err != nil {
		return Schedule{}, 0, err
	}
	return res.Schedule, res.ExpectedWork, nil
}

// AdmitsOptimal reports whether l admits an optimal schedule under the
// paper's Corollary 3.2 criteria, with diagnostics.
func AdmitsOptimal(l Life, c float64) (bool, string, error) {
	ad, err := core.AdmitsOptimal(l, c, core.PlanOptions{})
	if err != nil {
		return false, "", err
	}
	return ad.Admits, ad.Reason, nil
}
