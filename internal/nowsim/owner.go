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
