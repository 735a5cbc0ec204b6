// Package flow is the interprocedural engine under the cslint suite's
// nonnegwork analyzer and the call graph (internal/analysis/callgraph)
// behind hotalloc. For each analyzed package it records, per declared
// function: every call site with its type-resolved static callee
// (direct calls, package-qualified calls, and method calls resolved
// through go/types selections), the variables declared in loop headers,
// the ordering comparisons between local variables, and the raw
// subtractions the function returns. A fixpoint pass folds the last of
// these into per-function summaries (FuncSummary.RawSubs) so callers
// can see through wrappers: a helper returning `t - c` unclamped hides
// the subtraction from its call site exactly as a literal would not.
//
// Summaries cross package boundaries as facts: after the fixpoint the
// package's summaries are exported into the run's analysis.Session
// under FactsNamespace, and lookups for imported functions consult the
// session (populated dependency-first by the cslint driver and the
// golden harness). With no session the engine degrades to
// intra-package results.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Info is the engine's view of one analyzed package.
type Info struct {
	Pkg       *types.Package
	TypesInfo *types.Info
	Funcs     []*FuncInfo

	pass  *analysis.Pass
	byObj map[*types.Func]*FuncInfo
}

// FuncInfo is the engine's view of one declared function body.
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Calls []*CallSite

	summary    FuncSummary
	paramIndex map[*types.Var]int // receiver first, then declared parameters
	aliases    map[*types.Var]*types.Var
	loopVars   map[*types.Var]bool
	retSubs    [][2]*types.Var
	cmpPairs   [][2]*types.Var // operands of <, <=, >, >= comparisons
	retCalls   []*ast.CallExpr
	callByExpr map[*ast.CallExpr]*CallSite
}

// A CallSite is one call expression with its resolved static callee
// (nil when dynamic: function value, builtin).
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func
	method bool // receiver occupies normalized argument 0
}

// ArgExpr returns the expression passed at normalized argument index i
// (receiver = 0 for method calls), or nil when out of range.
func (c *CallSite) ArgExpr(i int) ast.Expr {
	if c.method {
		if i == 0 {
			if sel, ok := c.Call.Fun.(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		i--
	}
	if i < 0 || i >= len(c.Call.Args) {
		return nil
	}
	return c.Call.Args[i]
}

const sharedKey = "flow"

// Of returns the flow Info for the pass's package, building it on
// first request and sharing it between the flow-based analyzers of the
// same run. Building also exports the package's summaries as session
// facts for packages analyzed later.
func Of(pass *analysis.Pass) *Info {
	return pass.Shared(sharedKey, func() any { return build(pass) }).(*Info)
}

func build(pass *analysis.Pass) *Info {
	in := &Info{
		Pkg:       pass.Pkg,
		TypesInfo: pass.TypesInfo,
		pass:      pass,
		byObj:     make(map[*types.Func]*FuncInfo),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := in.collect(fd, obj)
			in.Funcs = append(in.Funcs, fi)
			in.byObj[obj.Origin()] = fi
		}
	}
	// Fixpoint: summaries only accumulate raw subtractions, so
	// recomputing until stable terminates; the bound is a safety net,
	// far above any real call-chain depth.
	for iter := 0; iter < 64; iter++ {
		changed := false
		for _, fi := range in.Funcs {
			ns := in.summarize(fi)
			if !ns.equal(fi.summary) {
				fi.summary = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	sums := make(Summaries, len(in.Funcs))
	for _, fi := range in.Funcs {
		sums[fi.Obj.FullName()] = fi.summary
	}
	pass.ExportFacts(FactsNamespace, sums)
	return in
}

// SummaryOf returns fn's summary: from this package's fixpoint for
// local functions, from session facts for imported ones. ok is false
// when the engine knows nothing (no body, no facts).
func (in *Info) SummaryOf(fn *types.Func) (FuncSummary, bool) {
	if fn == nil {
		return FuncSummary{}, false
	}
	fn = fn.Origin()
	if fn.Pkg() == in.Pkg {
		if fi, ok := in.byObj[fn]; ok {
			return fi.summary, true
		}
		return FuncSummary{}, false
	}
	if fn.Pkg() == nil {
		return FuncSummary{}, false
	}
	sums, _ := in.pass.Facts(fn.Pkg().Path(), FactsNamespace).(Summaries)
	s, ok := sums[fn.FullName()]
	return s, ok
}

// IsLoopVar reports whether v is declared in the header of a for or
// range statement in this function.
func (f *FuncInfo) IsLoopVar(v *types.Var) bool { return f.loopVars[v] }

// ComparedPair reports whether the function contains an ordering
// comparison (<, <=, >, >=) between x and y in either order — the
// guard shape that makes a subsequent x-y subtraction clamped rather
// than raw.
func (f *FuncInfo) ComparedPair(x, y *types.Var) bool {
	if x == nil || y == nil {
		return false
	}
	x, y = f.rootVar(x), f.rootVar(y)
	for _, p := range f.cmpPairs {
		if (p[0] == x && p[1] == y) || (p[0] == y && p[1] == x) {
			return true
		}
	}
	return false
}

// Root resolves e to the local variable it names, chasing parentheses
// and single-assignment aliases; nil when e is not a tracked variable.
func (f *FuncInfo) Root(e ast.Expr, info *types.Info) *types.Var {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		v, ok = info.Defs[id].(*types.Var)
		if !ok {
			return nil
		}
	}
	return f.rootVar(v)
}

func (f *FuncInfo) rootVar(v *types.Var) *types.Var {
	for i := 0; i < 32; i++ {
		next, ok := f.aliases[v]
		if !ok || next == v {
			return v
		}
		v = next
	}
	return v
}

// collect performs the single structural walk over one function body.
func (in *Info) collect(fd *ast.FuncDecl, obj *types.Func) *FuncInfo {
	fi := &FuncInfo{
		Obj:        obj,
		Decl:       fd,
		paramIndex: make(map[*types.Var]int),
		aliases:    make(map[*types.Var]*types.Var),
		loopVars:   make(map[*types.Var]bool),
		callByExpr: make(map[*ast.CallExpr]*CallSite),
	}
	sig := obj.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		fi.paramIndex[r] = 0
	}
	for i := 0; i < sig.Params().Len(); i++ {
		fi.paramIndex[sig.Params().At(i)] = len(fi.paramIndex)
	}

	info := in.TypesInfo
	// Pre-pass: count plain rebindings per variable. A variable bound
	// exactly once can serve as an alias root; one rebound later cannot
	// (its identity is flow-dependent and the engine is flow-insensitive
	// for aliases).
	bindCount := make(map[types.Object]int)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if o := info.Defs[id]; o != nil {
						bindCount[o]++
					} else if o := info.Uses[id]; o != nil {
						bindCount[o]++
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil {
					bindCount[o]++
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			markLoopVars(fi, info, n.Init)
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id != nil {
					if v, ok := info.Defs[id].(*types.Var); ok {
						fi.loopVars[v] = true
					}
				}
			}
		case *ast.AssignStmt:
			fi.collectAliases(n, info, bindCount)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				switch e := ast.Unparen(res).(type) {
				case *ast.BinaryExpr:
					if e.Op == token.SUB {
						x := fi.Root(e.X, info)
						y := fi.Root(e.Y, info)
						if x != nil && y != nil {
							fi.retSubs = append(fi.retSubs, [2]*types.Var{x, y})
						}
					}
				case *ast.CallExpr:
					fi.retCalls = append(fi.retCalls, e)
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				x := fi.Root(n.X, info)
				y := fi.Root(n.Y, info)
				if x != nil && y != nil {
					fi.cmpPairs = append(fi.cmpPairs, [2]*types.Var{x, y})
				}
			}
		case *ast.CallExpr:
			fi.collectCall(n, info)
		}
		return true
	})
	return fi
}

func markLoopVars(fi *FuncInfo, info *types.Info, init ast.Stmt) {
	as, ok := init.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				fi.loopVars[v] = true
			}
		}
	}
}

// collectAliases records `x := y` bindings between single-bound local
// variables, so Root sees through them.
func (fi *FuncInfo) collectAliases(n *ast.AssignStmt, info *types.Info, bindCount map[types.Object]int) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		var lv *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			lv = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			lv = u
		}
		if lv == nil || bindCount[lv] > 1 {
			continue
		}
		if r, ok := ast.Unparen(n.Rhs[i]).(*ast.Ident); ok {
			if rv, ok := info.Uses[r].(*types.Var); ok && fi.trackable(rv) {
				fi.aliases[lv] = fi.rootVar(rv)
			}
		}
	}
}

func (fi *FuncInfo) trackable(v *types.Var) bool {
	if v.IsField() {
		return false
	}
	if _, isParam := fi.paramIndex[v]; isParam {
		return true
	}
	return fi.Decl.Pos() <= v.Pos() && v.Pos() < fi.Decl.End()
}

// collectCall resolves the static callee and records the call site.
func (fi *FuncInfo) collectCall(call *ast.CallExpr, info *types.Info) {
	site := &CallSite{Call: call}
	site.Callee, site.method = analysis.StaticCallee(info, call)
	fi.Calls = append(fi.Calls, site)
	fi.callByExpr[call] = site
}

// summarize derives a function's raw-subtraction summary under the
// current (possibly still converging) summaries of its callees.
func (in *Info) summarize(fi *FuncInfo) FuncSummary {
	var subs []RawSub
	addSub := func(s RawSub) {
		for _, have := range subs {
			if have == s {
				return
			}
		}
		subs = append(subs, s)
	}
	for _, pair := range fi.retSubs {
		xi, xok := fi.paramIndex[pair[0]]
		yi, yok := fi.paramIndex[pair[1]]
		// A function that compares the same two operands before
		// subtracting (the PositiveSub shape) clamps, so its result is
		// not a raw difference.
		if xok && yok && !fi.ComparedPair(pair[0], pair[1]) {
			addSub(RawSub{X: xi, Y: yi})
		}
	}
	for _, call := range fi.retCalls {
		site := fi.callByExpr[call]
		if site == nil || site.Callee == nil {
			continue
		}
		sum, ok := in.SummaryOf(site.Callee)
		if !ok {
			continue
		}
		for _, rs := range sum.RawSubs {
			xv := fi.Root(site.ArgExpr(rs.X), in.TypesInfo)
			yv := fi.Root(site.ArgExpr(rs.Y), in.TypesInfo)
			if xv == nil || yv == nil {
				continue
			}
			xi, xok := fi.paramIndex[xv]
			yi, yok := fi.paramIndex[yv]
			if xok && yok {
				addSub(RawSub{X: xi, Y: yi})
			}
		}
	}
	return FuncSummary{RawSubs: subs}
}
