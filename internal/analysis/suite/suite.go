// Package suite enumerates the repository's analyzers in the order
// cmd/cslint runs them, so an analyzer added here is enforced
// everywhere at once.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errsink"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/nonnegwork"
	"repro/internal/analysis/obssafe"
	"repro/internal/analysis/printlint"
	"repro/internal/analysis/probrange"
	"repro/internal/analysis/unitflow"
)

// All is the full cslint analyzer suite. nonnegwork and hotalloc share
// one interprocedural flow build per package
// (internal/analysis/flow), hotalloc through the call graph built on
// top of it (internal/analysis/callgraph); unitflow and probrange share
// one dimension build (internal/analysis/dim) on top of the
// cfg+dataflow abstract-interpretation engine.
var All = []*analysis.Analyzer{
	determinism.Analyzer,
	errsink.Analyzer,
	floatcmp.Analyzer,
	hotalloc.Analyzer,
	nonnegwork.Analyzer,
	obssafe.Analyzer,
	printlint.Analyzer,
	probrange.Analyzer,
	unitflow.Analyzer,
}
