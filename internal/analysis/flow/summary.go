package flow

import "slices"

// FactsNamespace keys the flow engine's Summaries in an
// analysis.Session.
const FactsNamespace = "flow"

// A RawSub records that a function's return value is the raw (sign
// preserving) difference params[X] - params[Y], directly or through a
// chain of wrappers. The nonnegwork analyzer uses it to see through
// helpers that hide a `t - c` from the call site.
type RawSub struct {
	X, Y int
}

// A FuncSummary is one function's interprocedural summary: the raw
// subtractions of its parameters it returns.
type FuncSummary struct {
	RawSubs []RawSub
}

func (s FuncSummary) equal(t FuncSummary) bool { return slices.Equal(s.RawSubs, t.RawSubs) }

// Summaries maps a function's full name (types.Func.FullName: package
// qualified, "(*pkg.T).M" for methods) to its summary. Full names are
// stable across packages, so an importer finds a dependency's summary
// without sharing its type-checker objects.
type Summaries map[string]FuncSummary
