// Package obssafe preserves the nil-when-disabled observability
// contract: instrumentation fields (Sink, Metrics) are nil when
// disabled, and the nil check is owned by the wrapper layer
// (nowsim.Obs's emit closure, farmObs methods), not scattered over
// emission sites, so disabled instrumentation costs one branch where
// the wrapper is called.
//
// The analyzer flags any method call made directly through a struct
// field named Sink or Metrics — `o.Sink.Emit(e)`,
// `o.Metrics.Counter(...)` — outside packages named obs (the sink
// implementations themselves). Such calls either panic when the field
// is nil or force the caller to repeat the nil guard the wrapper
// already centralizes. Emission through a locally bound, checked value
// (`s := o.Sink; if s != nil { s.Emit(e) }`) or through the wrappers is
// fine. The wrapper layer's own field emissions carry //lint:allow
// obssafe annotations, which keeps the sanctioned sites enumerable.
//
// The analyzer also guards the span contract: the Phase, Span and
// Parent fields of an obs Event are owned by the Spanner/Span API
// (Start/Child/End allocate IDs, Span.Attach attributes point events).
// Hand-rolled span records — composite literals or assignments that set
// those fields outside obs packages — would bypass ID allocation and
// break begin/end pairing in rendered traces, so they are findings.
package obssafe

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "obssafe",
	Doc:  "require event/metric emission to go through the nil-safe Obs wrappers, not raw Sink/Metrics fields or hand-rolled span records",
	Run:  run,
}

// spanFields are the Event fields owned by the Spanner/Span API.
var spanFields = map[string]bool{"Phase": true, "Span": true, "Parent": true}

func run(pass *analysis.Pass) error {
	if analysis.PkgBase(pass.Pkg.Path()) == "obs" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkFieldCall(pass, n)
			case *ast.CompositeLit:
				checkSpanLiteral(pass, n)
			case *ast.AssignStmt:
				checkSpanAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkFieldCall(pass *analysis.Pass, call *ast.CallExpr) {
	method, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	field, ok := ast.Unparen(method.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := field.Sel.Name
	if name != "Sink" && name != "Metrics" {
		return
	}
	sel, ok := pass.TypesInfo.Selections[field]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	pass.ReportRangef(call, "%s.%s called through the %s field bypasses the nil-safe Obs wrapper; emit via the wrapper or a nil-checked local", name, method.Sel.Name, name)
}

// isObsEvent reports whether t (after pointer stripping) is a named
// struct type Event declared in a package whose base name is obs.
func isObsEvent(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Event" || obj.Pkg() == nil {
		return false
	}
	return analysis.PkgBase(obj.Pkg().Path()) == "obs"
}

// checkSpanLiteral flags obs Event composite literals that set span
// bookkeeping keys by hand instead of going through the Spanner API.
func checkSpanLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !isObsEvent(tv.Type) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !spanFields[key.Name] {
			continue
		}
		pass.ReportRangef(kv, "Event literal sets span field %s by hand; span records must come from Spanner.Start/Span.Child/Span.End, and point events attach via Span.Attach", key.Name)
	}
}

// checkSpanAssign flags assignments to span fields of an obs Event.
func checkSpanAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || !spanFields[sel.Sel.Name] {
			continue
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !isObsEvent(tv.Type) {
			continue
		}
		pass.ReportRangef(lhs, "assignment to Event.%s bypasses the Spanner API; span records must come from Spanner.Start/Span.Child/Span.End, and point events attach via Span.Attach", sel.Sel.Name)
	}
}
