// Package unitflow enforces the paper's implicit unit discipline over
// the model packages. Every quantity in Rosenberg's framework has a
// dimension — period lengths and overheads are time, t ⊖ c is work,
// life-function values are probabilities, their derivatives rates —
// but the Go code stores them all as float64, so nothing stops a
// schedule boundary (a time) from being added to an expected-work sum.
// The analyzer runs the dimension engine (internal/analysis/dim: a
// flat dimension lattice propagated by forward dataflow over each
// function's CFG, seeded from //cs:unit annotations, known APIs and
// cross-package facts) and reports every site where two *concretely
// known* dimensions disagree:
//
//   - addition or subtraction of mismatched dimensions (time + work)
//   - ordering or equality comparison across dimensions (time < probability)
//   - call arguments whose dimension contradicts the parameter's
//     declaration — the time-into-work-sink case
//   - assignments and composite-literal fields storing a value of the
//     wrong dimension into annotated storage
//   - returns contradicting an annotated result dimension
//
// Both lattice ends are silent: Unknown (nothing claimed) and Top
// (mixed arithmetic the algebra cannot name) never report, so every
// diagnostic rests on two explicit or soundly propagated dimensions.
// Malformed //cs:unit annotations are reported in any package, so a
// typo cannot silently disable checking.
package unitflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dim"
)

var Analyzer = &analysis.Analyzer{
	Name: "unitflow",
	Doc:  "flag arithmetic, comparisons and stores that mix //cs:unit dimensions (time vs work vs probability)",
	Run:  run,
}

// guarded names the model packages carrying paper formulas.
var guarded = map[string]bool{
	"sched":    true,
	"nowsim":   true,
	"lifefn":   true,
	"core":     true,
	"faultsim": true,
}

func run(pass *analysis.Pass) error {
	// Build (and export) dimension facts even when this package is not
	// guarded: guarded importers need annotations declared here.
	in := dim.Of(pass)
	for _, ba := range in.BadAnnots {
		pass.Reportf(ba.Pos, "malformed //cs:unit annotation: %s", ba.Msg)
	}
	if !guarded[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	for _, fd := range in.Funcs() {
		res, err := in.Analyze(fd)
		if err != nil {
			continue // body too wild for the fixpoint: stay silent
		}
		obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		resultDims := in.FuncDimsOf(obj)
		for _, b := range res.Graph.Blocks {
			env := res.In[b].Clone()
			for _, n := range b.Nodes {
				checkNode(pass, in, env, n, resultDims)
				in.Step(env, n)
			}
		}
	}
	return nil
}

// checkNode inspects one cfg block node under the environment holding
// at its entry. Compound statements never appear in block node lists
// (the cfg builder splits them), so the walk sees each expression in
// exactly one block.
func checkNode(pass *analysis.Pass, in *dim.Info, env dim.Env, n ast.Node, resultDims dim.FuncDims) {
	if rh, ok := n.(*cfg.RangeHeader); ok {
		n = rh.Range.X
	}
	ast.Inspect(n, func(child ast.Node) bool {
		switch e := child.(type) {
		case *ast.BinaryExpr:
			checkBinary(pass, in, env, e)
		case *ast.CallExpr:
			checkCall(pass, in, env, e)
		case *ast.AssignStmt:
			checkAssign(pass, in, env, e)
		case *ast.ReturnStmt:
			checkReturn(pass, in, env, e, resultDims)
		case *ast.FuncLit:
			// A return inside a function literal answers to the
			// literal, whose results declare no dimension.
			checkNode(pass, in, env, e.Body, dim.FuncDims{})
			return false
		case *ast.CompositeLit:
			checkComposite(pass, in, env, e)
		}
		return true
	})
}

func checkBinary(pass *analysis.Pass, in *dim.Info, env dim.Env, e *ast.BinaryExpr) {
	var verb string
	switch e.Op {
	case token.ADD, token.SUB:
		verb = "mixing"
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		verb = "comparing"
	default:
		return
	}
	x, y := in.ExprDim(env, e.X), in.ExprDim(env, e.Y)
	if !x.Concrete() || !y.Concrete() || x == y {
		return
	}
	pass.ReportRangef(e, "dimension mismatch: %s %v and %v with %q (annotate intent with //cs:unit or convert explicitly)",
		verb, x, y, e.Op.String())
}

func checkCall(pass *analysis.Pass, in *dim.Info, env dim.Env, call *ast.CallExpr) {
	fn, method := analysis.StaticCallee(in.TypesInfo, call)
	if fn == nil {
		return
	}
	fdims := in.FuncDimsOf(fn)
	if len(fdims.Params) == 0 {
		return
	}
	base := 0
	if method {
		base = 1
	}
	for i, arg := range call.Args {
		want := fdims.Param(base + i)
		got := in.ExprDim(env, arg)
		if !want.Concrete() || !got.Concrete() || want == got {
			continue
		}
		pass.ReportRangef(arg, "dimension mismatch: argument %d of %s wants %v, got %v",
			i+1, fn.Name(), want, got)
	}
}

func checkAssign(pass *analysis.Pass, in *dim.Info, env dim.Env, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		var want dim.Dim
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			want = in.StorageDim(lhs)
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			// x += y is x = x + y: the flow-inferred dimension of x
			// participates, not just declarations.
			want = in.ExprDim(env, lhs)
		default:
			continue
		}
		got := in.ExprDim(env, rhs)
		if !want.Concrete() || !got.Concrete() || want == got {
			continue
		}
		pass.ReportRangef(rhs, "dimension mismatch: storing %v into %v-typed %s",
			got, want, exprName(lhs))
	}
}

func checkReturn(pass *analysis.Pass, in *dim.Info, env dim.Env, ret *ast.ReturnStmt, resultDims dim.FuncDims) {
	for i, r := range ret.Results {
		want := resultDims.Result(i)
		got := in.ExprDim(env, r)
		if !want.Concrete() || !got.Concrete() || want == got {
			continue
		}
		pass.ReportRangef(r, "dimension mismatch: returning %v where the function declares %v", got, want)
	}
}

func checkComposite(pass *analysis.Pass, in *dim.Info, env dim.Env, lit *ast.CompositeLit) {
	t := in.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	named := dim.NamedOf(t)
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var fv *types.Var
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			fv, _ = in.TypesInfo.Uses[key].(*types.Var)
			val = kv.Value
		} else if i < st.NumFields() {
			fv = st.Field(i)
		}
		if fv == nil {
			continue
		}
		want := in.FieldDim(fv, named)
		got := in.ExprDim(env, val)
		if !want.Concrete() || !got.Concrete() || want == got {
			continue
		}
		pass.ReportRangef(val, "dimension mismatch: field %s is %v, value is %v",
			fv.Name(), want, got)
	}
}

// exprName renders an assignment target for the diagnostic.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprName(e.X)
	}
	return "the target"
}
