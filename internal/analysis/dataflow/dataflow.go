// Package dataflow runs forward fixpoint iteration over a cfg.Graph
// with a caller-supplied abstract domain, the generic half of the
// cslint suite's abstract-interpretation engine. The caller describes
// the domain as a Lattice (bottom, join, equality, widening) and the
// semantics as a block transfer function plus an optional edge
// transfer that refines state along branch edges (an interval analysis
// narrows x on the true edge of `x > 1`, for example).
//
// Iteration uses a reverse-postorder worklist. Termination is
// guaranteed for infinite-height domains by widening: once a loop
// head's state has been recomputed WidenAfter times, further growth at
// that head goes through Lattice.Widen, which must jump to a finite
// ascending chain (typically straight to top-like bounds). A domain of
// finite height can make Widen the identity... as long as Join
// actually stabilizes. A global iteration cap guards against
// misbehaving lattices; hitting it returns an error rather than
// silently unsound results.
//
// Must-analyses ("X happens on every path") fit the same machinery by
// making Join the meet of the dual lattice (intersection) and Bottom
// the universe.
package dataflow

import (
	"fmt"

	"repro/internal/analysis/cfg"
)

// A Lattice describes the abstract domain of one analysis over states
// of type S. States must be treated as immutable by Join and Widen:
// returning one of the arguments is fine, mutating it is not, because
// the engine stores states on blocks and edges.
type Lattice[S any] interface {
	// Bottom is the identity of Join: the state of unreached code.
	Bottom() S
	// Join computes the least upper bound of two states.
	Join(a, b S) S
	// Equal reports whether two states are indistinguishable; the
	// fixpoint stops when every block's input is Equal to its previous
	// input.
	Equal(a, b S) bool
	// Widen accelerates convergence at loop heads: it must return a
	// state at least as large as next, on an ascending chain that
	// reaches a fixed point in finitely many steps. Domains of finite
	// height can simply return next.
	Widen(prev, next S) S
}

// A Problem is one forward analysis instance.
type Problem[S any] struct {
	Lattice Lattice[S]
	// Entry is the state on entry to the function.
	Entry S
	// Transfer computes the block's output state from its input,
	// interpreting the block's nodes in order.
	Transfer func(b *cfg.Block, in S) S
	// EdgeTransfer, when non-nil, refines the state flowing along e
	// (whose From block produced out). Returning out unchanged is
	// always sound.
	EdgeTransfer func(e *cfg.Edge, out S) S
	// WidenAfter is the number of recomputations of a loop head's
	// input before widening kicks in; 0 means the default (3).
	WidenAfter int
}

// A Result carries the fixpoint states: In[b] is the joined input of
// block b, Out[b] the result of its transfer.
type Result[S any] struct {
	In, Out map[*cfg.Block]S
}

// maxSteps bounds total block recomputations; a correct lattice with
// widening converges orders of magnitude sooner.
const maxSteps = 100000

// Forward computes the forward fixpoint of p over g.
func Forward[S any](g *cfg.Graph, p Problem[S]) (*Result[S], error) {
	lat := p.Lattice
	widenAfter := p.WidenAfter
	if widenAfter <= 0 {
		widenAfter = 3
	}
	res := &Result[S]{
		In:  make(map[*cfg.Block]S, len(g.Blocks)),
		Out: make(map[*cfg.Block]S, len(g.Blocks)),
	}
	for _, b := range g.Blocks {
		res.In[b] = lat.Bottom()
		res.Out[b] = lat.Bottom()
	}
	res.In[g.Entry] = p.Entry

	// Worklist in RPO: blocks are indexed in reverse postorder by the
	// cfg builder, so popping the lowest index first visits
	// predecessors before successors on acyclic stretches.
	inList := make([]bool, len(g.Blocks))
	visits := make([]int, len(g.Blocks))
	list := make([]*cfg.Block, 0, len(g.Blocks))
	push := func(b *cfg.Block) {
		if !inList[b.Index] {
			inList[b.Index] = true
			list = append(list, b)
		}
	}
	pop := func() *cfg.Block {
		best := 0
		for i := 1; i < len(list); i++ {
			if list[i].Index < list[best].Index {
				best = i
			}
		}
		b := list[best]
		list[best] = list[len(list)-1]
		list = list[:len(list)-1]
		inList[b.Index] = false
		return b
	}
	for _, b := range g.Blocks {
		push(b)
	}

	for steps := 0; len(list) > 0; steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("dataflow: no convergence after %d steps (lattice violates the ascending chain condition?)", maxSteps)
		}
		b := pop()
		// Join predecessor outputs through their edges.
		in := res.In[b]
		if b != g.Entry {
			in = lat.Bottom()
			for _, e := range b.Preds {
				s := res.Out[e.From]
				if p.EdgeTransfer != nil {
					s = p.EdgeTransfer(e, s)
				}
				in = lat.Join(in, s)
			}
		}
		visits[b.Index]++
		if b.LoopHead() && visits[b.Index] > widenAfter {
			in = lat.Widen(res.In[b], in)
		}
		if visits[b.Index] > 1 && lat.Equal(in, res.In[b]) {
			continue
		}
		res.In[b] = in
		out := p.Transfer(b, in)
		if lat.Equal(out, res.Out[b]) && visits[b.Index] > 1 {
			continue
		}
		res.Out[b] = out
		for _, e := range b.Succs {
			push(e.To)
		}
	}
	return res, nil
}
