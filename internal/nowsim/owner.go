package nowsim

import (
	"fmt"

	"repro/internal/lifefn"
	"repro/internal/rng"
)

// Owner models the workstation owner's behaviour: when, relative to the
// start of a cycle-stealing episode, the owner reclaims the machine.
type Owner interface {
	// ReclaimAfter samples the time from episode start to reclamation.
	ReclaimAfter(r *rng.Source) float64
	String() string
}

// LifeOwner reclaims at a random time whose survival function is the
// given life function — the exact stochastic model behind E(S; p).
type LifeOwner struct {
	Life lifefn.Life
}

// ReclaimAfter implements Owner by inverse-transform sampling of the
// life function through lifefn.Draw.
func (o LifeOwner) ReclaimAfter(r *rng.Source) float64 {
	return lifefn.Draw(o.Life, r.Float64Open())
}

// String implements Owner.
func (o LifeOwner) String() string { return fmt.Sprintf("life-owner(%s)", o.Life) }

// SessionOwner alternates presence and absence sessions; an episode
// begins when the owner leaves, and the reclaim time is the absence
// duration. Absences are sampled from the given sampler (e.g. the
// synthetic session generators in internal/trace).
type SessionOwner struct {
	// AbsenceSampler draws one absence duration.
	AbsenceSampler func(r *rng.Source) float64
	Name           string
}

// ReclaimAfter implements Owner.
func (o SessionOwner) ReclaimAfter(r *rng.Source) float64 {
	return o.AbsenceSampler(r)
}

// String implements Owner.
func (o SessionOwner) String() string {
	if o.Name != "" {
		return o.Name
	}
	return "session-owner"
}
