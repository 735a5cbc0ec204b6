// Package probrange proves that probability-typed values stay inside
// [0,1]. Life functions p(t), commit probabilities and mixture
// weights drive every expectation in the paper (eq. 2.1, system 3.6);
// a value that escapes the unit interval — an unclamped sum of
// weighted terms, an extrapolated interpolant, a ratio without a
// bounds check — silently corrupts E(S;p) instead of failing. The
// analyzer runs an interval abstract interpretation over each
// function's CFG (internal/analysis/cfg + dataflow, with widening at
// loop heads) and checks every site where a value flows into
// probability-typed storage: returns of functions whose //cs:unit
// result is probability, arguments to probability parameters,
// assignments to probability fields and composite literals.
//
// The domain is assume-guarantee: reads of probability-declared
// storage (fields, package variables, calls whose declared result is
// probability) are assumed in [0,1]; writes and escapes are checked.
// Branch conditions refine intervals along edges (`if p > 1` leaves
// [0,1] on the false edge), and math.Min/math.Max/math.Abs are
// modeled, so the standard clamp idioms come out clean.
//
// A site is flagged only when its interval both escapes [0,1] and has
// at least one finite bound: a fully unknown value ([-∞,∞], nothing
// claimed anywhere) stays silent, so diagnostics always trace back to
// a concrete constant, annotation or accumulation — the same
// both-ends-silent discipline as unitflow's dimension lattice.
package probrange

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
	"repro/internal/analysis/dim"
)

var Analyzer = &analysis.Analyzer{
	Name: "probrange",
	Doc:  "prove //cs:unit probability values stay in [0,1] through 1-p, products, mixtures and interpolation",
	Run:  run,
}

// guarded names the packages carrying probability math.
var guarded = map[string]bool{
	"lifefn":   true,
	"numeric":  true,
	"core":     true,
	"sched":    true,
	"nowsim":   true,
	"faultsim": true,
}

func run(pass *analysis.Pass) error {
	in := dim.Of(pass)
	if !guarded[analysis.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	for _, fd := range in.Funcs() {
		obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		a := &analyzer{pass: pass, dims: in, resultDims: in.FuncDimsOf(obj)}
		a.checkFunc(fd)
	}
	return nil
}

// An interval is a closed range over the extended reals.
type interval struct{ lo, hi float64 }

var top = interval{math.Inf(-1), math.Inf(1)}

func point(v float64) interval { return interval{v, v} }

func (iv interval) isTop() bool  { return math.IsInf(iv.lo, -1) && math.IsInf(iv.hi, 1) }
func (iv interval) inUnit() bool { return iv.lo >= 0 && iv.hi <= 1 }
func (iv interval) someFinite() bool {
	return !math.IsInf(iv.lo, -1) || !math.IsInf(iv.hi, 1)
}

func hull(a, b interval) interval {
	return interval{math.Min(a.lo, b.lo), math.Max(a.hi, b.hi)}
}

func add(a, b interval) interval { return interval{a.lo + b.lo, a.hi + b.hi} }
func sub(a, b interval) interval { return interval{a.lo - b.hi, a.hi - b.lo} }
func neg(a interval) interval    { return interval{-a.hi, -a.lo} }

// mulBound treats 0·∞ as 0: abstract values stand for finite reals,
// and the zero bound dominates.
func mulBound(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a * b
}

func mul(a, b interval) interval {
	p1, p2 := mulBound(a.lo, b.lo), mulBound(a.lo, b.hi)
	p3, p4 := mulBound(a.hi, b.lo), mulBound(a.hi, b.hi)
	return interval{
		math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)),
	}
}

func div(a, b interval) interval {
	// A divisor straddling zero blows the quotient up to ⊤.
	if b.lo <= 0 && b.hi >= 0 {
		return top
	}
	p1, p2 := a.lo/b.lo, a.lo/b.hi
	p3, p4 := a.hi/b.lo, a.hi/b.hi
	return interval{
		math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)),
	}
}

// env maps tracked locals to their interval; ⊤ entries are removed,
// so nil-vs-empty and length comparisons stay meaningful.
type env map[*types.Var]interval

func cloneEnv(e env) env {
	out := make(env, len(e))
	for v, iv := range e {
		out[v] = iv
	}
	return out
}

type envLattice struct{}

func (envLattice) Bottom() env { return nil }
func (envLattice) Join(a, b env) env {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(env, len(a))
	// A variable missing on either side is ⊤ there, and ⊤ hulls to ⊤.
	for v, iv := range a {
		if jv, ok := b[v]; ok {
			h := hull(iv, jv)
			if !h.isTop() {
				out[v] = h
			}
		}
	}
	return out
}
func (envLattice) Equal(a, b env) bool {
	if len(a) != len(b) {
		return false
	}
	for v, iv := range a {
		if b[v] != iv {
			return false
		}
	}
	return true
}

// Widen jumps growing bounds to infinity so loop accumulations
// converge: an interval still growing after WidenAfter visits is
// unbounded for the analysis's purposes.
func (envLattice) Widen(prev, next env) env {
	out := make(env, len(next))
	for v, nv := range next {
		pv, ok := prev[v]
		if !ok {
			out[v] = nv
			continue
		}
		w := nv
		if nv.lo < pv.lo {
			w.lo = math.Inf(-1)
		}
		if nv.hi > pv.hi {
			w.hi = math.Inf(1)
		}
		if !w.isTop() {
			out[v] = w
		}
	}
	return out
}

// analyzer carries one function's checking state.
type analyzer struct {
	pass       *analysis.Pass
	dims       *dim.Info
	resultDims dim.FuncDims
}

func (a *analyzer) checkFunc(fd *ast.FuncDecl) {
	g := cfg.Build(fd.Body)
	res, err := dataflow.Forward(g, dataflow.Problem[env]{
		Lattice: envLattice{},
		Entry:   env{},
		Transfer: func(b *cfg.Block, in env) env {
			e := cloneEnv(in)
			for _, n := range b.Nodes {
				a.step(e, n)
			}
			return e
		},
		EdgeTransfer: func(edge *cfg.Edge, out env) env {
			if edge.Cond == nil {
				return out
			}
			return a.refine(out, edge.Cond, edge.Negated)
		},
	})
	if err != nil {
		return // no convergence: stay silent rather than guess
	}
	for _, b := range g.Blocks {
		e := cloneEnv(res.In[b])
		for _, n := range b.Nodes {
			a.checkNode(e, n)
			a.step(e, n)
		}
	}
}

// step advances the interval environment across one block node.
func (a *analyzer) step(e env, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.stepAssign(e, n)
	case *ast.IncDecStmt:
		cur := a.lookupExpr(e, n.X)
		if n.Tok == token.INC {
			a.setVar(e, n.X, add(cur, point(1)))
		} else {
			a.setVar(e, n.X, sub(cur, point(1)))
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Values) == len(vs.Names) {
				for i, name := range vs.Names {
					a.setVar(e, name, a.eval(e, vs.Values[i]))
				}
			} else if len(vs.Values) == 0 && isNumeric(a.pass.TypesInfo, vs.Type) {
				for _, name := range vs.Names {
					a.setVar(e, name, point(0)) // numeric zero value
				}
			} else {
				for _, name := range vs.Names {
					a.setVar(e, name, top)
				}
			}
		}
	case *cfg.RangeHeader:
		rs := n.Range
		if rs.Key != nil {
			a.setVar(e, rs.Key, top)
		}
		if rs.Value != nil {
			if a.dims.StorageDim(rs.X) == dim.Probability {
				a.setVar(e, rs.Value, interval{0, 1})
			} else {
				a.setVar(e, rs.Value, top)
			}
		}
	}
}

func isNumeric(info *types.Info, te ast.Expr) bool {
	if te == nil {
		return false
	}
	t := info.TypeOf(te)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsInteger) != 0
}

func (a *analyzer) stepAssign(e env, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		for _, lhs := range as.Lhs {
			a.setVar(e, lhs, top)
		}
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		var iv interval
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			iv = a.eval(e, rhs)
		case token.ADD_ASSIGN:
			iv = add(a.lookupExpr(e, lhs), a.eval(e, rhs))
		case token.SUB_ASSIGN:
			iv = sub(a.lookupExpr(e, lhs), a.eval(e, rhs))
		case token.MUL_ASSIGN:
			iv = mul(a.lookupExpr(e, lhs), a.eval(e, rhs))
		case token.QUO_ASSIGN:
			iv = div(a.lookupExpr(e, lhs), a.eval(e, rhs))
		default:
			iv = top
		}
		a.setVar(e, lhs, iv)
	}
}

// lookupExpr is eval restricted to the current binding of a plain
// identifier, ⊤ otherwise (used for the LHS of op-assignments).
func (a *analyzer) lookupExpr(e env, x ast.Expr) interval {
	return a.eval(e, x)
}

func (a *analyzer) localVar(x ast.Expr) *types.Var {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	var v *types.Var
	if d, ok := a.pass.TypesInfo.Defs[id].(*types.Var); ok {
		v = d
	} else if u, ok := a.pass.TypesInfo.Uses[id].(*types.Var); ok {
		v = u
	}
	if v == nil || v.IsField() {
		return nil
	}
	return v
}

func (a *analyzer) setVar(e env, x ast.Expr, iv interval) {
	v := a.localVar(x)
	if v == nil {
		return
	}
	if iv.isTop() {
		delete(e, v)
	} else {
		e[v] = iv
	}
}

// eval computes the abstract interval of an expression.
func (a *analyzer) eval(e env, x ast.Expr) interval {
	x = ast.Unparen(x)
	info := a.pass.TypesInfo
	// Any constant expression is a point.
	if tv, ok := info.Types[x]; ok && tv.Value != nil {
		if f, fok := constFloat(tv); fok {
			return point(f)
		}
	}
	switch x := x.(type) {
	case *ast.Ident:
		if v := a.localVar(x); v != nil {
			if iv, ok := e[v]; ok {
				return iv
			}
		}
		// Assume side: probability-declared storage holds [0,1].
		if a.dims.StorageDim(x) == dim.Probability {
			return interval{0, 1}
		}
		return top
	case *ast.SelectorExpr, *ast.IndexExpr:
		if a.dims.StorageDim(x) == dim.Probability {
			return interval{0, 1}
		}
		return top
	case *ast.CallExpr:
		return a.evalCall(e, x)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			return neg(a.eval(e, x.X))
		case token.ADD:
			return a.eval(e, x.X)
		}
		return top
	case *ast.BinaryExpr:
		l, r := a.eval(e, x.X), a.eval(e, x.Y)
		switch x.Op {
		case token.ADD:
			return add(l, r)
		case token.SUB:
			return sub(l, r)
		case token.MUL:
			return mul(l, r)
		case token.QUO:
			return div(l, r)
		}
		return top
	case *ast.StarExpr:
		return a.eval(e, x.X)
	}
	return top
}

func constFloat(tv types.TypeAndValue) (float64, bool) {
	if tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(tv.Value)
		return f, true
	}
	return 0, false
}

func (a *analyzer) evalCall(e env, call *ast.CallExpr) interval {
	info := a.pass.TypesInfo
	// Conversions pass through.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return a.eval(e, call.Args[0])
	}
	fn, _ := analysis.StaticCallee(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		switch fn.Name() {
		case "Min":
			if len(call.Args) == 2 {
				l, r := a.eval(e, call.Args[0]), a.eval(e, call.Args[1])
				return interval{math.Min(l.lo, r.lo), math.Min(l.hi, r.hi)}
			}
		case "Max":
			if len(call.Args) == 2 {
				l, r := a.eval(e, call.Args[0]), a.eval(e, call.Args[1])
				return interval{math.Max(l.lo, r.lo), math.Max(l.hi, r.hi)}
			}
		case "Abs":
			if len(call.Args) == 1 {
				iv := a.eval(e, call.Args[0])
				if iv.lo >= 0 {
					return iv
				}
				hi := math.Max(math.Abs(iv.lo), math.Abs(iv.hi))
				return interval{0, hi}
			}
		case "Exp":
			return interval{0, math.Inf(1)}
		}
		return top
	}
	if fn != nil && a.dims.FuncDimsOf(fn).Result(0) == dim.Probability {
		return interval{0, 1} // assume: a declared probability result
	}
	return top
}

// refine narrows env along a branch edge whose condition is cond
// (negated when the edge is the false branch).
func (a *analyzer) refine(e env, cond ast.Expr, negated bool) env {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return a.refine(e, c.X, !negated)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if !negated { // both conjuncts hold on the true edge
				return a.refine(a.refine(e, c.X, false), c.Y, false)
			}
		case token.LOR:
			if negated { // De Morgan: neither disjunct holds
				return a.refine(a.refine(e, c.X, true), c.Y, true)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			return a.refineCmp(e, c, negated)
		}
	}
	return e
}

func (a *analyzer) refineCmp(e env, c *ast.BinaryExpr, negated bool) env {
	op := c.Op
	if negated {
		switch op {
		case token.LSS:
			op = token.GEQ
		case token.LEQ:
			op = token.GTR
		case token.GTR:
			op = token.LEQ
		case token.GEQ:
			op = token.LSS
		}
	}
	x, y := c.X, c.Y
	// Reduce to x ≤ y (strict bounds cannot be tightened on floats, so
	// < refines like ≤).
	if op == token.GTR || op == token.GEQ {
		x, y = y, x
	}
	xv, yv := a.eval(e, x), a.eval(e, y)
	out, cloned := e, false
	ensure := func() {
		if !cloned {
			out, cloned = cloneEnv(e), true
		}
	}
	if v := a.localVar(x); v != nil && yv.hi < xv.hi {
		ensure()
		out[v] = interval{xv.lo, yv.hi}
	}
	if v := a.localVar(y); v != nil && xv.lo > yv.lo {
		ensure()
		out[v] = interval{math.Max(xv.lo, yv.lo), yv.hi}
	}
	return out
}

// checkNode reports probability escapes at the node's check sites.
func (a *analyzer) checkNode(e env, n ast.Node) {
	if rh, ok := n.(*cfg.RangeHeader); ok {
		n = rh.Range.X
	}
	ast.Inspect(n, func(child ast.Node) bool {
		switch c := child.(type) {
		case *ast.ReturnStmt:
			for i, r := range c.Results {
				if a.resultDims.Result(i) == dim.Probability {
					a.checkValue(e, r, "returned as a probability")
				}
			}
		case *ast.CallExpr:
			a.checkCallArgs(e, c)
		case *ast.AssignStmt:
			if len(c.Lhs) != len(c.Rhs) {
				return true
			}
			for i, lhs := range c.Lhs {
				if c.Tok != token.ASSIGN && c.Tok != token.DEFINE {
					continue
				}
				if a.dims.StorageDim(lhs) == dim.Probability {
					a.checkValue(e, c.Rhs[i], "stored into probability-typed "+storageName(lhs))
				}
			}
		case *ast.CompositeLit:
			a.checkComposite(e, c)
		}
		return true
	})
}

func (a *analyzer) checkCallArgs(e env, call *ast.CallExpr) {
	fn, method := analysis.StaticCallee(a.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	fdims := a.dims.FuncDimsOf(fn)
	if len(fdims.Params) == 0 {
		return
	}
	base := 0
	if method {
		base = 1
	}
	for i, arg := range call.Args {
		if fdims.Param(base+i) == dim.Probability {
			a.checkValue(e, arg, "passed as the probability argument of "+fn.Name())
		}
	}
}

func (a *analyzer) checkComposite(e env, lit *ast.CompositeLit) {
	t := a.pass.TypesInfo.TypeOf(lit)
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
			key, kok := kv.Key.(*ast.Ident)
			if !kok {
				continue
			}
			fv, _ = a.pass.TypesInfo.Uses[key].(*types.Var)
			val = kv.Value
		} else if i < st.NumFields() {
			fv = st.Field(i)
		}
		if fv == nil {
			continue
		}
		if a.dims.FieldDim(fv, named) == dim.Probability {
			a.checkValue(e, val, "stored into probability field "+fv.Name())
		}
	}
}

func (a *analyzer) checkValue(e env, x ast.Expr, sink string) {
	iv := a.eval(e, x)
	if iv.inUnit() || !iv.someFinite() {
		return
	}
	a.pass.ReportRangef(x, "probability out of range: value in [%s, %s] %s can escape [0,1]; clamp it first",
		fmtBound(iv.lo), fmtBound(iv.hi), sink)
}

func fmtBound(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func storageName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return storageName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return storageName(e.X) + "[...]"
	}
	return "storage"
}
