// Package nonnegwork guards the paper's positive-subtraction operator:
// remaining work is t ⊖ c = max(0, t-c) (eq. 2.1), never the raw
// difference, because a period shorter than the reclamation overhead
// must contribute zero work — a negative contribution silently corrupts
// E(S;p) sums and the inductive bounds of system 3.6. The repository
// routes the operator through sched.PositiveSub.
//
// In the simulator packages (nowsim, core, sched, faultsim) the
// analyzer flags floating-point subtractions whose subtrahend is an
// overhead/cost quantity (an identifier or field named c, cost, or
// *overhead) unless the enclosing function guards the pair with an
// ordering comparison the way PositiveSub itself does. Using the flow
// engine's RawSub summaries it also flags calls to wrappers — in any
// analyzed package, across package boundaries via facts — that return
// the raw difference of their arguments, so hiding `t - c` behind a
// helper does not evade the check.
package nonnegwork

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "nonnegwork",
	Doc:  "flag raw t-c work arithmetic bypassing sched.PositiveSub, interprocedurally",
	Run:  run,
}

// guarded names the simulator packages.
var guarded = map[string]bool{
	"nowsim":   true,
	"core":     true,
	"sched":    true,
	"faultsim": true,
}

func run(pass *analysis.Pass) error {
	// Build (and export) flow facts even when this package is not
	// guarded: downstream guarded packages need the summaries to see
	// through wrappers defined here.
	in, err := flow.Of(pass)
	if err != nil {
		return err
	}
	if !guarded[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	for _, fi := range in.Funcs {
		if fi.Obj.Name() == "PositiveSub" {
			continue // the ⊖ implementation itself
		}
		checkDirect(pass, in, fi)
		checkCalls(pass, in, fi)
	}
	return nil
}

// overheadName reports whether name denotes an overhead/cost quantity.
func overheadName(name string) bool {
	l := strings.ToLower(name)
	return l == "c" || l == "cost" || strings.HasSuffix(l, "overhead") || strings.HasSuffix(l, "cost")
}

// overheadLike reports whether e names an overhead/cost quantity: a
// variable (after alias resolution), a field selection, or an accessor
// method call with such a name.
func overheadLike(fi *flow.FuncInfo, info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v := fi.Root(e, info); v != nil {
			return overheadName(v.Name())
		}
		return overheadName(e.Name)
	case *ast.SelectorExpr:
		return overheadName(e.Sel.Name)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			return overheadName(sel.Sel.Name)
		}
	}
	return false
}

func isFloat(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkDirect flags raw `x - overhead` expressions in the function
// body, except when the function compares the same pair first (the
// PositiveSub guard shape).
func checkDirect(pass *analysis.Pass, in *flow.Info, fi *flow.FuncInfo) {
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.SUB {
			return true
		}
		if !isFloat(in.TypesInfo, be) || !overheadLike(fi, in.TypesInfo, be.Y) {
			return true
		}
		x := fi.Root(be.X, in.TypesInfo)
		y := fi.Root(be.Y, in.TypesInfo)
		if fi.ComparedPair(x, y) {
			return true // clamped by an explicit ordering guard
		}
		pass.ReportRangef(be,
			"raw subtraction of overhead/cost %q can go negative: route work quantities through sched.PositiveSub (the paper's t ⊖ c)",
			exprName(be.Y))
		return true
	})
}

// checkCalls flags calls whose callee summary says the result is the
// raw difference of two arguments, with the subtrahend an
// overhead/cost quantity at this call site.
func checkCalls(pass *analysis.Pass, in *flow.Info, fi *flow.FuncInfo) {
	for _, site := range fi.Calls {
		sum, ok := in.SummaryOf(site.Callee)
		if !ok {
			continue
		}
		for _, rs := range sum.RawSubs {
			y := site.ArgExpr(rs.Y)
			if y == nil || !overheadLike(fi, in.TypesInfo, y) || !isFloat(in.TypesInfo, y) {
				continue
			}
			pass.ReportRangef(site.Call,
				"call to %s hides a raw work subtraction (returns its argument minus %q unclamped): use sched.PositiveSub",
				site.Callee.Name(), exprName(y))
			break
		}
	}
}

// exprName renders the subtrahend for the diagnostic.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprName(e.Fun) + "()"
	}
	return "the subtrahend"
}
