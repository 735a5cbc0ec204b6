package hotalloc

// Allocation-site detection: one pass over a function body finds every
// construct that may heap-allocate, refined by two cheap analyses so
// the deliberate patterns stay silent:
//
//   - a capacity analysis (the dataflow fixpoint engine over the
//     function's CFG) tracks which slice variables flow from an
//     explicit-capacity make or an s[:0] reuse, so append onto a
//     preallocated buffer is not a finding;
//   - a flat escape lattice ({NoEscape, Escapes}, computed
//     syntactically) lets a constant-size make/new/literal that stays
//     local to the function stay silent, matching what the compiler's
//     escape analysis will stack-allocate.
//
// Everything else — growing appends, escaping makes, interface boxing,
// capturing closures, map iteration, fmt and string concatenation —
// becomes an AllocSite.

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
	"repro/internal/analysis/flow"
)

// A localSite is an AllocSite still carrying its real position for
// in-package reporting.
type localSite struct {
	pos  token.Pos
	end  token.Pos
	desc string
}

func (s localSite) exported(fset *token.FileSet) AllocSite {
	return AllocSite{Pos: shortPos(fset, s.pos), Desc: s.desc}
}

// Pos and End make localSite an analysis.Range for ReportRangef.
func (s localSite) Pos() token.Pos { return s.pos }
func (s localSite) End() token.Pos { return s.end }

// shortPos renders "file.go:line" with the base filename, stable
// across checkout roots (facts strings must not embed absolute paths).
func shortPos(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	name := pos.Filename[strings.LastIndexByte(pos.Filename, '/')+1:]
	return name + ":" + strconv.Itoa(pos.Line)
}

// render pretty-prints a short source fragment for diagnostics.
func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return "?"
	}
	s := buf.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}

// collectSites finds the allocation sites of one declared function.
// Sites inside function literals belong to the enclosing declaration,
// mirroring the flow engine's attribution.
func collectSites(pass *analysis.Pass, fi *flow.FuncInfo) []localSite {
	c := &collector{pass: pass, fi: fi, info: pass.TypesInfo}
	c.capacity(fi.Decl.Body)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.closure(lit)
			c.capacity(lit.Body)
			// Keep walking: allocation sites inside the literal are
			// sites of the enclosing function.
			return true
		}
		c.node(n)
		return true
	})
	sort.Slice(c.sites, func(i, j int) bool { return c.sites[i].pos < c.sites[j].pos })
	return c.sites
}

type collector struct {
	pass  *analysis.Pass
	fi    *flow.FuncInfo
	info  *types.Info
	sites []localSite
}

func (c *collector) add(n ast.Node, desc string) {
	c.sites = append(c.sites, localSite{pos: n.Pos(), end: n.End(), desc: desc})
}

// node dispatches the context-free checks (everything but append
// capacity, which needs the dataflow state).
func (c *collector) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		c.call(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				c.compositeAddr(n, lit)
			}
		}
	case *ast.CompositeLit:
		c.composite(n)
	case *ast.BinaryExpr:
		if n.Op == token.ADD && c.isString(n) && !c.constant(n) {
			c.add(n, "string concatenation allocates")
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && c.isString(n.Lhs[0]) {
			c.add(n, "string += allocates")
		}
		c.boxedAssign(n)
	case *ast.ReturnStmt:
		c.boxedReturn(n)
	case *ast.RangeStmt:
		if t := c.info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				c.add(n, "map iteration (hash-order walk) on the hot path")
			}
		}
	}
}

func (c *collector) isString(e ast.Expr) bool {
	t := c.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (c *collector) constant(e ast.Expr) bool {
	tv, ok := c.info.Types[e]
	return ok && tv.Value != nil
}

// call checks one call expression: make/new escapes, fmt, and
// interface boxing of arguments.
func (c *collector) call(call *ast.CallExpr) {
	switch builtinName(call, c.info) {
	case "make":
		t := c.info.TypeOf(call)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Chan:
			if c.constSized(call.Args[1:]) && !c.escapes(call) {
				return // stack-allocatable: constant size, never leaves
			}
			c.add(call, render(c.pass.Fset, call)+" allocates")
		}
		return
	case "new":
		if !c.escapes(call) {
			return
		}
		c.add(call, render(c.pass.Fset, call)+" allocates")
		return
	case "":
		// not a builtin: fall through to signature checks
	default:
		return
	}
	// Conversions are not allocation sites here ([]byte(s) and friends
	// are out of scope); they carry no *types.Signature.
	sig, ok := typeAsSignature(c.info, call.Fun)
	if !ok {
		return
	}
	if fn, _ := analysis.StaticCallee(c.info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		c.add(call, "fmt."+fn.Name()+" allocates (formats through interfaces)")
		return // the fmt finding subsumes per-argument boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis.IsValid() {
				pt = last // f(xs...) passes the slice itself: no boxing
			} else if s, ok := last.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if c.boxes(pt, arg) {
			c.add(arg, render(c.pass.Fset, arg)+" boxed into "+pt.String()+" argument")
		}
	}
}

func typeAsSignature(info *types.Info, fun ast.Expr) (*types.Signature, bool) {
	tv, ok := info.Types[ast.Unparen(fun)]
	if !ok || tv.IsType() {
		return nil, false
	}
	sig, ok := tv.Type.(*types.Signature)
	return sig, ok
}

// boxes reports whether storing arg into a location of type dst is an
// interface conversion that allocates: dst is an interface, the value
// is concrete, not pointer-shaped, and not a compile-time constant
// (small constants are interned by the runtime).
func (c *collector) boxes(dst types.Type, arg ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	at := c.info.TypeOf(arg)
	if at == nil || types.IsInterface(at) {
		return false
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if c.constant(arg) {
		return false
	}
	return !pointerShaped(at)
}

// pointerShaped reports whether values of t fit an interface's data
// word without allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func (c *collector) boxedAssign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		var lt types.Type
		if n.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.info.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		} else {
			lt = c.info.TypeOf(lhs)
		}
		if c.boxes(lt, n.Rhs[i]) {
			c.add(n.Rhs[i], render(c.pass.Fset, n.Rhs[i])+" boxed into "+lt.String())
		}
	}
}

func (c *collector) boxedReturn(n *ast.ReturnStmt) {
	sig, ok := c.fi.Obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(n.Results) {
		return
	}
	for i, res := range n.Results {
		if c.boxes(sig.Results().At(i).Type(), res) {
			c.add(res, render(c.pass.Fset, res)+" boxed into "+sig.Results().At(i).Type().String()+" result")
		}
	}
}

// compositeAddr checks &T{...}: a heap allocation unless the pointer
// provably stays local.
func (c *collector) compositeAddr(addr *ast.UnaryExpr, lit *ast.CompositeLit) {
	if !c.escapes(addr) {
		return
	}
	c.add(addr, "&"+render(c.pass.Fset, lit)+" escapes to the heap")
}

// composite checks value literals of reference kinds: slice and map
// literals allocate their backing store like make does.
func (c *collector) composite(lit *ast.CompositeLit) {
	t := c.info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		if !c.escapes(lit) {
			return
		}
		c.add(lit, render(c.pass.Fset, lit)+" allocates its backing store")
	}
}

// constSized reports whether every size argument is a compile-time
// constant — the precondition for the compiler stack-allocating the
// backing store.
func (c *collector) constSized(args []ast.Expr) bool {
	for _, a := range args {
		if !c.constant(a) {
			return false
		}
	}
	return true
}

// closure records a function literal that captures variables: the
// capture environment is a heap allocation at the point the literal is
// evaluated. Capture-free literals compile to static functions and
// stay silent.
func (c *collector) closure(lit *ast.FuncLit) {
	captured := c.captures(lit)
	if len(captured) == 0 {
		return
	}
	loopy := false
	for _, v := range captured {
		if c.fi.IsLoopVar(v) {
			loopy = true
		}
	}
	desc := "closure captures " + strconv.Itoa(len(captured)) + " variable(s)"
	if loopy {
		desc = "closure captures a loop variable (allocates per iteration)"
	}
	c.add(lit, desc)
}

// captures lists the variables lit closes over: objects declared in
// the enclosing function, outside the literal.
func (c *collector) captures(lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	decl := c.fi.Decl
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Declared inside the enclosing declaration but outside the
		// literal: a capture. Package-level vars are direct references.
		if v.Pos() >= decl.Pos() && v.Pos() < decl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

// escapes is the flat escape lattice: false only when the construct is
// bound to a simple local variable whose every use is a benign local
// access (indexing, slicing, ranging, len/cap/copy/delete, rebinding,
// append as the destination, field access, dereference). Anything the
// walk cannot prove benign — returns, call arguments, captures, &v,
// stores into other structures, method calls — escapes.
func (c *collector) escapes(expr ast.Expr) bool {
	v := c.boundVar(expr)
	if v == nil {
		return true // not bound to a simple local: assume the worst
	}
	return c.escapesLocally(v)
}

// boundVar returns the local variable expr is directly assigned to in
// a single-value v := expr / v = expr / var v = expr, nil otherwise.
func (c *collector) boundVar(expr ast.Expr) *types.Var {
	var found *types.Var
	ast.Inspect(c.fi.Decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 || ast.Unparen(n.Rhs[0]) != expr {
				return true
			}
			if id, ok := n.Lhs[0].(*ast.Ident); ok {
				if v := c.localVarObj(id); v != nil {
					found = v
				}
			}
			return false
		case *ast.ValueSpec:
			for i, val := range n.Values {
				if ast.Unparen(val) == expr && i < len(n.Names) {
					if v := c.localVarObj(n.Names[i]); v != nil {
						found = v
					}
				}
			}
		}
		return true
	})
	return found
}

func (c *collector) localVarObj(id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if v, ok := c.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := c.info.Uses[id].(*types.Var); ok && !v.IsField() && v.Parent() != c.pass.Pkg.Scope() {
		return v
	}
	return nil
}

// escapesLocally scans every use of v in the function for a context
// that lets the value leave the frame.
func (c *collector) escapesLocally(v *types.Var) bool {
	escaped := false
	var inspect func(n ast.Node, inLit bool)
	inspect = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if escaped {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				// A use inside a literal is a capture: escapes.
				inspect(n.Body, true)
				return false
			case *ast.Ident:
				if c.info.Uses[n] != types.Object(v) && c.info.Defs[n] != types.Object(v) {
					return true
				}
				if inLit || !c.benignUse(n) {
					escaped = true
				}
			}
			return true
		})
	}
	inspect(c.fi.Decl.Body, false)
	return escaped
}

// benignUse reports whether the use of ident id keeps the value inside
// the frame. parentOf walks the body lazily; the body is small enough
// that the repeated walks stay cheap (functions are linted once).
func (c *collector) benignUse(id *ast.Ident) bool {
	parents := parentChain(c.fi.Decl.Body, id)
	if parents == nil {
		return false
	}
	// Walk outward through transparent wrappers.
	child := ast.Node(id)
	for i := len(parents) - 1; i >= 0; i-- {
		p := parents[i]
		switch p := p.(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.IndexExpr:
			return p.X == child // v[i] ok; x[v] is an index read, also ok
		case *ast.SliceExpr:
			return p.X == child
		case *ast.RangeStmt:
			return p.X == child || p.Key == child || p.Value == child
		case *ast.StarExpr:
			child = p
			continue
		case *ast.SelectorExpr:
			if p.X != child {
				return false
			}
			// Field access stays local; a method value or call may
			// retain the receiver.
			if sel, ok := c.info.Selections[p]; ok && sel.Kind() == types.FieldVal {
				child = p
				continue
			}
			return false
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == child {
					return true // rebinding or store into v's element
				}
			}
			return false // v on the RHS flows somewhere else
		case *ast.CallExpr:
			return c.benignCallUse(p, child)
		case *ast.ExprStmt, *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt,
			*ast.SwitchStmt, *ast.CaseClause, *ast.IncDecStmt:
			return true
		case *ast.BinaryExpr, *ast.UnaryExpr:
			if u, ok := p.(*ast.UnaryExpr); ok && u.Op == token.AND {
				return false // &v escapes
			}
			child = p
			continue
		default:
			return false
		}
	}
	return true
}

// benignCallUse: v may appear in len/cap/copy/delete and as append's
// destination without escaping; any other call argument escapes.
func (c *collector) benignCallUse(call *ast.CallExpr, child ast.Node) bool {
	switch builtinName(call, c.info) {
	case "len", "cap", "copy", "delete":
		return true
	case "append":
		return len(call.Args) > 0 && ast.Unparen(call.Args[0]) == child
	}
	return false
}

// parentChain returns the ancestors of target inside root, outermost
// first; nil when target is not found.
func parentChain(root ast.Node, target ast.Node) []ast.Node {
	var stack, found []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if n == target {
			found = append([]ast.Node(nil), stack...)
			return false
		}
		stack = append(stack, n)
		return true
	})
	return found
}

func builtinName(call *ast.CallExpr, info *types.Info) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// --- capacity analysis -------------------------------------------------

// capState is the per-variable capacity lattice: bottom < reserved,
// other; reserved means the slice flows from an explicit-capacity make
// or an s[:0] reuse, so appends onto it are deliberate.
type capState uint8

const (
	capBottom capState = iota
	capReserved
	capOther
)

type capEnv map[*types.Var]capState

type capLattice struct{}

func (capLattice) Bottom() capEnv { return nil }

func (capLattice) Join(a, b capEnv) capEnv {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(capEnv, len(a)+len(b))
	for v, s := range a {
		out[v] = s
	}
	for v, s := range b {
		if cur, ok := out[v]; !ok || s > cur {
			out[v] = s
		}
	}
	return out
}

func (capLattice) Equal(a, b capEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for v, s := range a {
		if b[v] != s {
			return false
		}
	}
	return true
}

func (capLattice) Widen(prev, next capEnv) capEnv { return next }

// capacity runs the append-capacity analysis over one body (a
// declaration's or a literal's: the cfg treats literals as opaque, so
// each body gets its own fixpoint) and records a site for every append
// whose destination has no provable capacity reservation.
func (c *collector) capacity(body *ast.BlockStmt) {
	g := cfg.Build(body)
	res, err := dataflow.Forward(g, dataflow.Problem[capEnv]{
		Lattice: capLattice{},
		Entry:   capEnv{},
		Transfer: func(b *cfg.Block, in capEnv) capEnv {
			env := in
			for _, n := range b.Nodes {
				env = c.capStep(env, n)
			}
			return env
		},
	})
	if err != nil {
		return // no refinement: stay silent rather than guess
	}
	for _, b := range g.Blocks {
		env := res.In[b]
		for _, n := range b.Nodes {
			c.checkAppends(env, n, body)
			env = c.capStep(env, n)
		}
	}
}

// capStep interprets one block node's assignments into the capacity
// environment.
func (c *collector) capStep(env capEnv, n ast.Node) capEnv {
	set := func(v *types.Var, s capState) {
		next := make(capEnv, len(env)+1)
		for k, val := range env {
			next[k] = val
		}
		next[v] = s
		env = next
	}
	switch n := n.(type) {
	case *cfg.RangeHeader:
		for _, e := range []ast.Expr{n.Range.Key, n.Range.Value} {
			if id, ok := e.(*ast.Ident); ok && id != nil {
				if v := c.localVarObj(id); v != nil {
					set(v, capOther)
				}
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					if v := c.localVarObj(id); v != nil {
						set(v, capOther)
					}
				}
			}
			return env
		}
		for i, l := range n.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			v := c.localVarObj(id)
			if v == nil {
				continue
			}
			set(v, c.capOf(env, n.Rhs[i]))
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return env
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != len(vs.Names) {
				continue
			}
			for i, name := range vs.Names {
				if v := c.localVarObj(name); v != nil {
					set(v, c.capOf(env, vs.Values[i]))
				}
			}
		}
	}
	return env
}

// capOf evaluates the capacity state an expression yields.
func (c *collector) capOf(env capEnv, e ast.Expr) capState {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		switch builtinName(e, c.info) {
		case "make":
			if len(e.Args) == 3 { // make([]T, n, cap): capacity thought out
				return capReserved
			}
		case "append":
			if len(e.Args) > 0 {
				return c.capOf(env, e.Args[0])
			}
		}
	case *ast.SliceExpr:
		if zeroHigh(e, c.info) {
			return capReserved // s[:0] reuse keeps s's backing store
		}
	case *ast.Ident:
		if v := c.localVarObj(e); v != nil {
			return env[v]
		}
	}
	return capOther
}

// zeroHigh reports the s[:0] (or s[0:0]) reuse idiom.
func zeroHigh(e *ast.SliceExpr, info *types.Info) bool {
	if e.High == nil {
		return false
	}
	tv, ok := info.Types[e.High]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// checkAppends flags append calls in n whose destination is not
// provably reserved, skipping nested literals (they run their own
// capacity pass).
func (c *collector) checkAppends(env capEnv, n ast.Node, body *ast.BlockStmt) {
	rh, isRange := n.(*cfg.RangeHeader)
	if isRange {
		n = rh.Range.X
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || builtinName(call, c.info) != "append" || len(call.Args) == 0 {
			return true
		}
		if c.capOf(env, call.Args[0]) == capReserved {
			return true
		}
		c.add(call, "append may grow "+render(c.pass.Fset, call.Args[0])+" (no provable capacity)")
		return true
	})
}
