package dim

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

// An Env is the abstract state of one program point: the dimension of
// every function-local variable the analysis has learned something
// about. Declared (annotated) variables are deliberately absent —
// their dimension is pinned in the engine's object map and consulted
// first — and Unknown entries are normalized away, so nil and empty
// environments join and compare cheaply.
type Env map[*types.Var]Dim

// Clone returns a private copy of e for statement-by-statement
// advancement with Step; cloning nil yields an empty environment.
func (e Env) Clone() Env { return cloneEnv(e) }

func cloneEnv(e Env) Env {
	out := make(Env, len(e))
	for v, d := range e {
		out[v] = d
	}
	return out
}

// envLattice is the pointwise lift of the Dim lattice; a variable
// missing from one side is Unknown there, so Join keeps the other
// side's knowledge.
type envLattice struct{}

func (envLattice) Bottom() Env { return nil }
func (envLattice) Join(a, b Env) Env {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(Env, len(a)+len(b))
	for v, d := range a {
		out[v] = d
	}
	for v, d := range b {
		out[v] = Join(out[v], d)
	}
	return out
}
func (envLattice) Equal(a, b Env) bool {
	if len(a) != len(b) {
		return false
	}
	for v, d := range a {
		if b[v] != d {
			return false
		}
	}
	return true
}

// Widen is the identity: the per-variable lattice has height three
// and the variable set is finite, so joins alone converge.
func (envLattice) Widen(_, next Env) Env { return next }

// A FuncResult is the dimension fixpoint of one function body.
type FuncResult struct {
	Graph *cfg.Graph
	// In holds the abstract environment on entry to each block; walk
	// the block's nodes with Info.Step to advance it statement by
	// statement.
	In map[*cfg.Block]Env
}

// Info is the dimension engine's view of one analyzed package.
type Info struct {
	Pkg       *types.Package
	Fset      *token.FileSet
	TypesInfo *types.Info
	// BadAnnots lists malformed //cs:unit annotations for unitflow to
	// report.
	BadAnnots []BadAnnot

	pass     *analysis.Pass
	objDims  map[*types.Var]Dim    // annotated fields, params, locals, package vars
	varKeys  map[*types.Var]string // facts key for exported fields / package vars
	funcDims map[*types.Func]FuncDims
	decls    []funcRec
	memo     map[*ast.FuncDecl]*FuncResult
	memoErr  map[*ast.FuncDecl]error
}

type funcRec struct {
	fd  *ast.FuncDecl
	obj *types.Func
}

const sharedKey = "dim"

// Of returns the dimension Info for the pass's package, building it
// on first request and sharing it between the dimension-based
// analyzers of the same run. Building also exports the package's
// dimension facts for packages analyzed later in the session.
func Of(pass *analysis.Pass) *Info {
	return pass.Shared(sharedKey, func() any { return build(pass) }).(*Info)
}

func build(pass *analysis.Pass) *Info {
	in := &Info{
		Pkg:       pass.Pkg,
		Fset:      pass.Fset,
		TypesInfo: pass.TypesInfo,
		pass:      pass,
		objDims:   make(map[*types.Var]Dim),
		varKeys:   make(map[*types.Var]string),
		funcDims:  make(map[*types.Func]FuncDims),
		memo:      make(map[*ast.FuncDecl]*FuncResult),
		memoErr:   make(map[*ast.FuncDecl]error),
	}
	in.collectAnnots()
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
			in.decls = append(in.decls, funcRec{fd, obj})
		}
	}
	// Pre-seed local declarations from the built-in table so known
	// APIs keep their dimensions even when the inference fixpoint
	// records an entry for them; explicit annotations win per slot.
	for _, rec := range in.decls {
		bd, ok := builtinFuncs[rec.obj.FullName()]
		if !ok {
			continue
		}
		merged := mergeFuncDims(in.funcDims[rec.obj], bd)
		in.funcDims[rec.obj] = merged
		in.seedParamDims(rec.obj, merged)
	}
	// Snapshot annotated result slots: inference fills the gaps but
	// never overrides a declaration.
	annotated := make(map[*types.Func][]bool)
	for obj, fd := range in.funcDims {
		mask := make([]bool, len(fd.Results))
		for i, d := range fd.Results {
			mask[i] = d != Unknown
		}
		annotated[obj] = mask
	}
	// Fixpoint over intra-package calls: result dimensions only grow
	// (Join is monotone over a finite lattice), so iteration
	// terminates; the bound is a safety net.
	for iter := 0; iter < 8; iter++ {
		changed := false
		for _, rec := range in.decls {
			res, err := in.analyzeFunc(rec.fd)
			if err != nil {
				continue // over-long body: skip inference, keep annotations
			}
			inferred := in.inferReturns(rec.fd, rec.obj, res)
			if inferred == nil {
				continue
			}
			cur := in.funcDims[rec.obj]
			next := cur
			if len(next.Results) < len(inferred) {
				next.Results = append(make([]Dim, 0, len(inferred)), next.Results...)
				next.Results = append(next.Results, make([]Dim, len(inferred)-len(next.Results))...)
			}
			mask := annotated[rec.obj]
			for i, d := range inferred {
				if i < len(mask) && mask[i] {
					continue
				}
				next.Results[i] = Join(next.Results[i], d)
			}
			if !next.equal(cur) {
				in.funcDims[rec.obj] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	facts := Facts{Funcs: make(map[string]FuncDims), Vars: make(map[string]Dim)}
	for obj, fd := range in.funcDims {
		if !fd.empty() {
			facts.Funcs[obj.FullName()] = fd
		}
	}
	for v, key := range in.varKeys {
		facts.Vars[key] = in.objDims[v]
	}
	pass.ExportFacts(FactsNamespace, facts)
	return in
}

// mergeFuncDims overlays base's dimensions into the Unknown slots of
// primary, growing the slices as needed.
func mergeFuncDims(primary, base FuncDims) FuncDims {
	merge := func(p, b []Dim) []Dim {
		if len(b) > len(p) {
			p = append(append(make([]Dim, 0, len(b)), p...), make([]Dim, len(b)-len(p))...)
		}
		for i := range p {
			if p[i] == Unknown && i < len(b) {
				p[i] = b[i]
			}
		}
		return p
	}
	return FuncDims{
		Params:  merge(primary.Params, base.Params),
		Results: merge(primary.Results, base.Results),
	}
}

// seedParamDims pins fd's parameter dimensions onto the signature's
// parameter objects so body analyses see them.
func (in *Info) seedParamDims(obj *types.Func, fd FuncDims) {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	seed := func(v *types.Var, d Dim) {
		if v != nil && d != Unknown {
			in.objDims[v] = d
		}
	}
	i := 0
	if sig.Recv() != nil {
		seed(sig.Recv(), fd.Param(0))
		i = 1
	}
	for j := 0; j < sig.Params().Len() && i+j < len(fd.Params); j++ {
		seed(sig.Params().At(j), fd.Params[i+j])
	}
}

// Funcs returns the package's analyzed function declarations.
func (in *Info) Funcs() []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, len(in.decls))
	for i, rec := range in.decls {
		out[i] = rec.fd
	}
	return out
}

// Analyze returns the dimension fixpoint for one of the package's
// function declarations, memoized across analyzers.
func (in *Info) Analyze(fd *ast.FuncDecl) (*FuncResult, error) {
	if res, ok := in.memo[fd]; ok {
		return res, in.memoErr[fd]
	}
	res, err := in.analyzeFunc(fd)
	in.memo[fd] = res
	in.memoErr[fd] = err
	return res, err
}

func (in *Info) analyzeFunc(fd *ast.FuncDecl) (*FuncResult, error) {
	g := cfg.Build(fd.Body)
	res, err := dataflow.Forward(g, dataflow.Problem[Env]{
		Lattice: envLattice{},
		Entry:   Env{},
		Transfer: func(b *cfg.Block, in0 Env) Env {
			env := cloneEnv(in0)
			for _, n := range b.Nodes {
				in.Step(env, n)
			}
			return env
		},
	})
	if err != nil {
		return nil, err
	}
	return &FuncResult{Graph: g, In: res.In}, nil
}

// inferReturns joins the dimension of every returned expression, per
// result position; nil when the function has no results.
func (in *Info) inferReturns(fd *ast.FuncDecl, obj *types.Func, res *FuncResult) []Dim {
	sig := obj.Type().(*types.Signature)
	n := sig.Results().Len()
	if n == 0 {
		return nil
	}
	acc := make([]Dim, n)
	for _, b := range res.Graph.Blocks {
		env := cloneEnv(res.In[b])
		for _, node := range b.Nodes {
			if ret, ok := node.(*ast.ReturnStmt); ok && len(ret.Results) == n {
				for i, r := range ret.Results {
					acc[i] = Join(acc[i], in.ExprDim(env, r))
				}
			}
			in.Step(env, node)
		}
	}
	return acc
}

// Step advances env across one cfg block node. env must be private to
// the caller (it is mutated in place). Unknown results delete the
// binding, so environments never carry bottom entries.
func (in *Info) Step(env Env, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		in.stepAssign(env, n)
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
					in.setEnv(env, name, in.ExprDim(env, vs.Values[i]))
				}
			} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
				in.stepTuple(env, identExprs(vs.Names), vs.Values[0])
			}
		}
	case *cfg.RangeHeader:
		in.stepRange(env, n.Range)
	}
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

func (in *Info) stepAssign(env Env, as *ast.AssignStmt) {
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		in.stepTuple(env, as.Lhs, as.Rhs[0])
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		var d Dim
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			d = in.ExprDim(env, rhs)
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			d = Join(in.ExprDim(env, lhs), in.ExprDim(env, rhs))
		case token.MUL_ASSIGN:
			d = Mul(in.ExprDim(env, lhs), in.ExprDim(env, rhs))
		case token.QUO_ASSIGN:
			d = Div(in.ExprDim(env, lhs), in.ExprDim(env, rhs))
		default:
			d = Unknown
		}
		in.setEnv(env, lhs, d)
	}
}

// stepTuple handles `a, b := f()` and the comma-ok forms.
func (in *Info) stepTuple(env Env, lhs []ast.Expr, rhs ast.Expr) {
	rhs = ast.Unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok {
		for i, l := range lhs {
			in.setEnv(env, l, in.callDim(env, call, i))
		}
		return
	}
	// v, ok := m[k] / x.(T) / <-ch: the value keeps the source's
	// (element) dimension, the bool is dimensionless noise.
	for i, l := range lhs {
		if i == 0 {
			in.setEnv(env, l, in.ExprDim(env, rhs))
		} else {
			in.setEnv(env, l, Unknown)
		}
	}
}

func (in *Info) stepRange(env Env, rs *ast.RangeStmt) {
	xd := in.ExprDim(env, rs.X)
	xt := in.TypesInfo.TypeOf(rs.X)
	keyDim, valDim := Unknown, xd
	if xt != nil {
		switch xt.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Pointer:
			keyDim = Count
		case *types.Basic:
			keyDim = Count // string bytes or range-over-int
			valDim = Unknown
		case *types.Chan:
			keyDim, valDim = xd, Unknown // key is the element
		}
	}
	if rs.Key != nil {
		in.setEnv(env, rs.Key, keyDim)
	}
	if rs.Value != nil {
		in.setEnv(env, rs.Value, valDim)
	}
}

// setEnv binds the variable named by e (when it is a plain local
// identifier without a pinned declaration) to d.
func (in *Info) setEnv(env Env, e ast.Expr, d Dim) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v := in.varOf(id)
	if v == nil || v.IsField() {
		return
	}
	if _, pinned := in.objDims[v]; pinned {
		return
	}
	if d == Unknown {
		delete(env, v)
	} else {
		env[v] = d
	}
}

func (in *Info) varOf(id *ast.Ident) *types.Var {
	if v, ok := in.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := in.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// ExprDim evaluates the abstract dimension of e under env. For
// collection-typed expressions the result names the element
// dimension, matching the annotation convention.
func (in *Info) ExprDim(env Env, e ast.Expr) Dim {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		v := in.varOf(e)
		if v == nil {
			return Unknown
		}
		if d, ok := in.objDims[v]; ok {
			return d
		}
		return env[v]
	case *ast.SelectorExpr:
		return in.selectorDim(e)
	case *ast.CallExpr:
		return in.callDim(env, e, 0)
	case *ast.BinaryExpr:
		x, y := in.ExprDim(env, e.X), in.ExprDim(env, e.Y)
		switch e.Op {
		case token.ADD, token.SUB:
			return Join(x, y)
		case token.MUL:
			return Mul(x, y)
		case token.QUO:
			return Div(x, y)
		}
		return Unknown
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return in.ExprDim(env, e.X)
		}
		return Unknown
	case *ast.IndexExpr:
		return in.ExprDim(env, e.X)
	case *ast.StarExpr:
		return in.ExprDim(env, e.X)
	}
	return Unknown
}

// StorageDim returns the declared dimension of the storage location
// named by e — an annotated variable, parameter, package variable or
// struct field — Unknown when the location carries no declaration.
// Unlike ExprDim it never consults flow-inferred state, so it is the
// authoritative side of assignment and argument checks.
func (in *Info) StorageDim(e ast.Expr) Dim {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		v := in.varOf(e)
		if v == nil {
			return Unknown
		}
		if d, ok := in.objDims[v]; ok {
			return d
		}
		if v.IsField() {
			// Composite-literal key in another package's struct: no
			// selection to lean on, but the literal's type names it.
			return Unknown
		}
		return in.pkgVarDim(v)
	case *ast.SelectorExpr:
		return in.selectorDim(e)
	case *ast.IndexExpr:
		return in.StorageDim(e.X)
	case *ast.StarExpr:
		return in.StorageDim(e.X)
	}
	return Unknown
}

// FieldDim returns the declared dimension of field fv of the named
// struct type owner (which supplies the facts key for imported
// packages).
func (in *Info) FieldDim(fv *types.Var, owner *types.Named) Dim {
	if d, ok := in.objDims[fv]; ok {
		return d
	}
	if fv.Pkg() == nil || fv.Pkg() == in.Pkg || owner == nil {
		return Unknown
	}
	facts := in.factsFor(fv.Pkg().Path())
	return facts.Vars[owner.Obj().Name()+"."+fv.Name()]
}

func (in *Info) selectorDim(sel *ast.SelectorExpr) Dim {
	if s, ok := in.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		fv, _ := s.Obj().(*types.Var)
		if fv == nil {
			return Unknown
		}
		return in.FieldDim(fv, NamedOf(s.Recv()))
	}
	if v, ok := in.TypesInfo.Uses[sel.Sel].(*types.Var); ok {
		return in.pkgVarDim(v)
	}
	return Unknown
}

func (in *Info) pkgVarDim(v *types.Var) Dim {
	if d, ok := in.objDims[v]; ok {
		return d
	}
	if v.Pkg() == nil || v.Pkg() == in.Pkg || v.IsField() {
		return Unknown
	}
	if v.Parent() == nil || v.Parent() != v.Pkg().Scope() {
		return Unknown
	}
	return in.factsFor(v.Pkg().Path()).Vars[v.Name()]
}

// NamedOf unwraps pointers to the named type underneath, nil when t
// is not (a pointer to) a named type. Analyzers use it to build facts
// keys for struct-field lookups.
func NamedOf(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func (in *Info) callDim(env Env, call *ast.CallExpr, resultIndex int) Dim {
	// Conversions preserve the operand's dimension: float64(t) is
	// still a time.
	if tv, ok := in.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return in.ExprDim(env, call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := in.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				return Count
			}
			return Unknown
		}
	}
	fn, _ := analysis.StaticCallee(in.TypesInfo, call)
	if fn == nil {
		return Unknown
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		switch fn.Name() {
		case "Min", "Max":
			if len(call.Args) == 2 {
				return Join(in.ExprDim(env, call.Args[0]), in.ExprDim(env, call.Args[1]))
			}
		case "Abs", "Floor", "Ceil", "Trunc", "Round":
			if len(call.Args) == 1 {
				return in.ExprDim(env, call.Args[0])
			}
		}
		return Unknown
	}
	return in.FuncDimsOf(fn).Result(resultIndex)
}

// FuncDimsOf returns fn's declared-or-inferred dimensions: from this
// package's fixpoint for local functions, then the built-in table of
// known APIs, then imported session facts.
func (in *Info) FuncDimsOf(fn *types.Func) FuncDims {
	if fn == nil {
		return FuncDims{}
	}
	fn = fn.Origin()
	if fd, ok := in.funcDims[fn]; ok {
		return fd
	}
	full := fn.FullName()
	if fd, ok := builtinFuncs[full]; ok {
		return fd
	}
	if fn.Pkg() == nil || fn.Pkg() == in.Pkg {
		return FuncDims{}
	}
	return in.factsFor(fn.Pkg().Path()).Funcs[full]
}

// factsFor returns the dimension facts the package at path exported,
// empty when the session holds none.
func (in *Info) factsFor(path string) Facts {
	f, _ := in.pass.Facts(path, FactsNamespace).(Facts)
	return f
}
