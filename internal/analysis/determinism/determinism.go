// Package determinism guards the simulator packages' reproducibility
// contract: a seeded run must be bit-identical across machines and
// runs, with or without observability attached (the sink-on == sink-off
// trace guarantee).
//
// In the guarded packages (import paths ending in nowsim, core, sched
// or faultsim, including their test variants) the analyzer flags:
//   - importing math/rand or math/rand/v2: its stream is
//     version-dependent; randomness must come from the explicitly
//     seeded repro/internal/rng;
//   - referencing time.Now, time.Since, time.Tick or time.After:
//     simulators run on simulated clocks, never the wall clock;
//   - ranging over a map: iteration order is randomized per run, so any
//     output, trace or accumulation sequenced by it silently breaks the
//     bit-identical guarantee. Iterate a sorted key slice, or annotate
//     //lint:allow determinism with an argument for commutativity.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, math/rand and map-iteration-order dependence in simulator packages",
	Run:  run,
}

// guarded names the simulator packages (matched on the cleaned last
// path element, so module, fixture and test-variant paths all
// agree).
var guarded = map[string]bool{
	"nowsim":   true,
	"core":     true,
	"sched":    true,
	"faultsim": true,
}

// wallClock lists time package functions that read the wall clock.
var wallClock = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
	"time.Tick":  true,
	"time.After": true,
}

func run(pass *analysis.Pass) error {
	if !guarded[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				if p == "math/rand" || p == "math/rand/v2" {
					pass.ReportRangef(imp, "import of %s in a simulator package: use the seeded repro/internal/rng for reproducible streams", p)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok && wallClock[fn.FullName()] {
					pass.ReportRangef(n, "%s reads the wall clock in a simulator package: use the simulated clock", fn.FullName())
				}
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.ReportRangef(n.X, "range over a map has nondeterministic order in a simulator package: iterate sorted keys or annotate //lint:allow determinism")
					}
				}
			}
			return true
		})
	}
	return nil
}
