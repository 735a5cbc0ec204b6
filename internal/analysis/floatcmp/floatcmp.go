// Package floatcmp flags == and != on floating-point operands.
//
// The planner and landscape code compare expected work E(S; p)
// everywhere, and two mathematically equal schedules rarely produce
// bit-identical float64 values; exact comparison is how tolerance bugs
// enter. Comparisons must go through a tolerance helper (math.Abs(a-b)
// <= tol) or be visibly intentional.
//
// Allowed without annotation:
//   - comparison against a constant whose float64 value is exact (0,
//     1.5, math.MaxFloat64, ...): sentinel and default checks are safe
//     because the constant round-trips; 0.1 does not and is flagged;
//   - comparison against math.Inf(...): infinities compare exactly;
//   - x != x / x == x: the NaN self-test idiom.
//
// Everything else needs //lint:allow floatcmp <reason>, tolerance
// helpers included: a function's name says nothing about whether a
// comparison in its body is deliberate.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "flag exact == / != comparisons of floating-point values",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
				checkCmp(pass, be)
			}
			return true
		})
	}
	return nil
}

func checkCmp(pass *analysis.Pass, cmp *ast.BinaryExpr) {
	if !isFloat(pass, cmp.X) && !isFloat(pass, cmp.Y) {
		return
	}
	// NaN self-test idiom: x != x.
	if types.ExprString(cmp.X) == types.ExprString(cmp.Y) {
		return
	}
	if exactOperand(pass, cmp.X) || exactOperand(pass, cmp.Y) {
		return
	}
	pass.ReportRangef(cmp, "exact floating-point comparison (%s); compare within a tolerance or annotate //lint:allow floatcmp", cmp.Op)
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exactOperand reports whether e's value compares exactly: a constant
// that is exactly representable as float64, or a math.Inf call.
//
// Exactness is judged on the source-level value, not the type-checked
// one: go/types records constants after rounding to the target type, so
// Types[e].Value for 0.1 is already the nearest float64 and would look
// exact. The literal (or the untyped const object's value) keeps full
// precision and tells 0.1 apart from 1.5.
func exactOperand(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
		e = ast.Unparen(u.X)
	}
	switch e := e.(type) {
	case *ast.BasicLit:
		return floatExact(constant.MakeFromLiteral(e.Value, e.Kind, 0))
	case *ast.Ident:
		if c, ok := pass.TypesInfo.Uses[e].(*types.Const); ok {
			return floatExact(c.Val())
		}
	case *ast.SelectorExpr:
		if c, ok := pass.TypesInfo.Uses[e.Sel].(*types.Const); ok {
			return floatExact(c.Val())
		}
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == "math.Inf" {
				return true
			}
		}
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return floatExact(tv.Value)
	}
	return false
}

// floatExact reports whether v is exactly representable as a float64.
func floatExact(v constant.Value) bool {
	f := constant.ToFloat(v)
	if f.Kind() != constant.Float {
		return false
	}
	_, exact := constant.Float64Val(f)
	return exact
}
