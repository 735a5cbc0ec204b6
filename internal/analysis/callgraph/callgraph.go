// Package callgraph builds a package-set call graph over the flow
// engine's per-function call sites, the reachability substrate under
// the hotalloc analyzer. Nodes are functions named by
// types.Func.FullName (stable across packages); edges come in two
// flavors:
//
//   - static: the call site resolved to a concrete function or method
//     (flow.CallSite.Callee with a non-interface receiver);
//   - dynamic: the call site resolved to an interface method. The
//     abstract method is recorded as-is and resolved CHA-style at query
//     time: every named type visible in the analyzing package's import
//     closure whose method set satisfies the interface contributes its
//     implementation as a callee. Resolution happens in the importer —
//     which sees strictly more implementations than the defining
//     package did — so the graph sharpens as the package set grows.
//
// Per-package node maps ride the analysis.Session facts store under
// FactsNamespace, exactly like the flow engine's summaries, so
// reachability queries cross package boundaries: a //cs:hotpath root in
// serve can reach an allocation three packages down in sched.
//
// # Soundness caveats
//
// Calls through plain function values (fields, parameters, locals of
// function type) have no callee the engine can name and produce no
// edge — a hot path that launders a call through a stored func value
// escapes the walk. Function literals are the exception that keeps the
// common case sound: the flow engine attributes a literal's body to
// its enclosing declaration, so calls made inside closures are edges
// of the enclosing function regardless of where the closure ends up
// running. CHA is bounded by the import closure: implementations in
// packages the analyzing package never imports are invisible, the
// usual whole-program assumption scoped down to a package set.
package callgraph

import (
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// FactsNamespace keys the call graph's Nodes in an analysis.Session.
const FactsNamespace = "callgraph"

const sharedKey = "callgraph"

// A Node is the exported view of one function: its resolved static
// callees, the abstract interface methods it calls, and its hot-root
// label when //cs:hotpath-annotated.
type Node struct {
	Callees []string
	Dynamic []string
	Hot     string
}

// Nodes maps a function's full name to its node, the per-package
// facts value.
type Nodes map[string]Node

// Graph is the call-graph view from one analyzed package: full bodies
// for local functions, facts for imported ones, and the CHA universe
// of the package's import closure.
type Graph struct {
	Pkg   *types.Package
	Flow  *flow.Info
	Roots []Root
	// BadAnnots lists malformed //cs:hotpath annotations for the
	// hotalloc analyzer to report.
	BadAnnots []BadAnnot

	pass  *analysis.Pass
	local map[string]*flow.FuncInfo
	nodes Nodes // local nodes, as exported
	// world is the import-closure package list (analyzed package first),
	// the CHA universe; pkgByPath indexes it for abstract-name lookup.
	world     []*types.Package
	pkgByPath map[string]*types.Package
	// resolved caches CHA resolutions of abstract method full names.
	resolved map[string][]string
}

// Of returns the call graph for the pass's package, building it on
// first request and sharing it between analyzers of the same run.
// Building exports the package's node map as session facts for
// packages analyzed later.
func Of(pass *analysis.Pass) *Graph {
	return pass.Shared(sharedKey, func() any { return build(pass) }).(*Graph)
}

func build(pass *analysis.Pass) *Graph {
	fl := flow.Of(pass)
	g := &Graph{
		Pkg:       pass.Pkg,
		Flow:      fl,
		pass:      pass,
		local:     make(map[string]*flow.FuncInfo),
		nodes:     make(Nodes),
		pkgByPath: make(map[string]*types.Package),
		resolved:  make(map[string][]string),
	}
	g.collectWorld(pass.Pkg)
	g.collectHotpath()
	hot := make(map[string]string, len(g.Roots))
	for _, r := range g.Roots {
		hot[r.Name] = r.Label
	}
	for _, fi := range fl.Funcs {
		name := fi.Obj.FullName()
		g.local[name] = fi
		node := Node{Hot: hot[name]}
		static := map[string]bool{}
		dynamic := map[string]bool{}
		for _, site := range fi.Calls {
			if site.Callee == nil {
				continue // builtin or function value: no edge
			}
			if abstractMethod(site.Callee) {
				dynamic[site.Callee.FullName()] = true
			} else {
				static[site.Callee.FullName()] = true
			}
		}
		node.Callees = sortedKeys(static)
		node.Dynamic = sortedKeys(dynamic)
		g.nodes[name] = node
	}
	pass.ExportFacts(FactsNamespace, g.nodes)
	return g
}

// collectWorld walks the import closure once, recording every package
// reachable from root. The closure is the CHA universe and the
// abstract-name resolution scope.
func (g *Graph) collectWorld(root *types.Package) {
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		g.world = append(g.world, p)
		g.pkgByPath[p.Path()] = p
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(root)
}

// abstractMethod reports whether fn is an interface method (a call to
// it dispatches dynamically).
func abstractMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// IsLocal reports whether name is declared (with a body) in the
// analyzed package.
func (g *Graph) IsLocal(name string) bool {
	_, ok := g.local[name]
	return ok
}

// NodeOf returns the node for name: the local node, or the imported
// facts node. ok is false when the function is outside the analyzed
// world (no body seen, no facts) — a leaf for reachability.
func (g *Graph) NodeOf(name string, pkgPath string) (Node, bool) {
	if n, ok := g.nodes[name]; ok {
		return n, true
	}
	if pkgPath == "" || pkgPath == g.Pkg.Path() {
		return Node{}, false
	}
	nodes, _ := g.pass.Facts(pkgPath, FactsNamespace).(Nodes)
	n, ok := nodes[name]
	return n, ok
}

// An OutEdge is one resolved call edge leaving a function.
type OutEdge struct {
	To string
	// Site is the call expression for edges out of local functions, nil
	// for edges recovered from imported facts.
	Site *flow.CallSite
	// Dynamic marks edges produced by CHA resolution of an interface
	// method call; To is then one of possibly several implementations.
	Dynamic bool
}

// Out returns the resolved outgoing edges of name, given the package
// path the name belongs to ("" for local). Dynamic calls are expanded
// to every implementation CHA finds in the import closure; the
// abstract method itself is not an edge. Order is deterministic.
func (g *Graph) Out(name, pkgPath string) []OutEdge {
	var edges []OutEdge
	if fi, ok := g.local[name]; ok {
		for _, site := range fi.Calls {
			if site.Callee == nil {
				continue
			}
			if abstractMethod(site.Callee) {
				for _, impl := range g.resolve(site.Callee.FullName()) {
					edges = append(edges, OutEdge{To: impl, Site: site, Dynamic: true})
				}
				continue
			}
			edges = append(edges, OutEdge{To: site.Callee.FullName(), Site: site})
		}
		return edges
	}
	node, ok := g.NodeOf(name, pkgPath)
	if !ok {
		return nil
	}
	for _, c := range node.Callees {
		edges = append(edges, OutEdge{To: c})
	}
	for _, d := range node.Dynamic {
		for _, impl := range g.resolve(d) {
			edges = append(edges, OutEdge{To: impl, Dynamic: true})
		}
	}
	return edges
}

// PkgPathOf extracts the defining package path from a function full
// name: "path.Func", "(path.T).M" or "(*path.T).M". "" when the name
// carries no package (builtins).
func PkgPathOf(name string) string {
	s := name
	if len(s) > 0 && s[0] == '(' {
		if i := strings.IndexByte(s, ')'); i >= 0 {
			s = s[1:i]
		}
		if len(s) > 0 && s[0] == '*' {
			s = s[1:]
		}
	}
	// s is now "path.Type" or "path.Func": the path is everything up to
	// the last dot (import paths may contain dots in their domain part,
	// never after the final slash).
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[:i]
	}
	return ""
}

// resolve performs the CHA query for an abstract interface method full
// name: the implementations among every named type of the import
// closure whose method set satisfies the method's interface.
func (g *Graph) resolve(abstract string) []string {
	if impls, ok := g.resolved[abstract]; ok {
		return impls
	}
	impls := g.resolveUncached(abstract)
	g.resolved[abstract] = impls
	return impls
}

func (g *Graph) resolveUncached(abstract string) []string {
	ifaceName, method, ok := splitAbstract(abstract)
	if !ok {
		return nil
	}
	path, typeName := PkgPathOf(ifaceName), baseName(ifaceName)
	pkg := g.pkgByPath[path]
	if pkg == nil {
		return nil
	}
	obj, _ := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if obj == nil {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	found := map[string]bool{}
	for _, p := range g.world {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			var recv types.Type
			switch {
			case types.Implements(named, iface):
				recv = named
			case types.Implements(types.NewPointer(named), iface):
				recv = types.NewPointer(named)
			default:
				continue
			}
			fnObj, _, _ := types.LookupFieldOrMethod(recv, true, p, method)
			if fn, ok := fnObj.(*types.Func); ok {
				found[fn.Origin().FullName()] = true
			}
		}
	}
	return sortedKeys(found)
}

// splitAbstract parses "(path.Iface).Method" into its interface name
// and method.
func splitAbstract(name string) (iface, method string, ok bool) {
	if len(name) == 0 || name[0] != '(' {
		return "", "", false
	}
	i := strings.IndexByte(name, ')')
	if i < 0 || i+2 > len(name) || name[i+1] != '.' {
		return "", "", false
	}
	return name[1:i], name[i+2:], true
}

func baseName(qualified string) string {
	if i := strings.LastIndexByte(qualified, '.'); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}

// A Reach is the result of one reachability query: the BFS tree from a
// root, with parent edges for witness chains.
type Reach struct {
	Root string
	// Parent maps each reached function to the edge that first reached
	// it; the root maps to a zero edge with From "".
	Parent map[string]ReachEdge
	// Order lists reached functions in deterministic BFS order, root
	// first.
	Order []string
}

// A ReachEdge is one step of a witness chain.
type ReachEdge struct {
	From string
	// Site is the local call expression when From is a local function.
	Site *flow.CallSite
	// Gateway is the last local call site on the path from the root:
	// the place a diagnostic about this function can be reported in the
	// analyzed package.
	Gateway *flow.CallSite
	Dynamic bool
}

// ReachableFrom runs a breadth-first walk from root (a local function
// full name), following static edges and CHA-resolved dynamic edges,
// across package boundaries via facts. The walk is deterministic:
// neighbors are visited in sorted order.
func (g *Graph) ReachableFrom(root string) *Reach {
	r := &Reach{Root: root, Parent: map[string]ReachEdge{root: {}}}
	queue := []string{root}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		r.Order = append(r.Order, name)
		parent := r.Parent[name]
		edges := g.Out(name, PkgPathOf(name))
		sort.SliceStable(edges, func(i, j int) bool { return edges[i].To < edges[j].To })
		for _, e := range edges {
			if _, seen := r.Parent[e.To]; seen {
				continue
			}
			gw := parent.Gateway
			if e.Site != nil {
				gw = e.Site
			}
			r.Parent[e.To] = ReachEdge{From: name, Site: e.Site, Gateway: gw, Dynamic: e.Dynamic}
			queue = append(queue, e.To)
		}
	}
	return r
}

// Chain renders the witness path from the query root to name:
// ["root", ..., "name"]. nil when name was not reached.
func (r *Reach) Chain(name string) []string {
	if _, ok := r.Parent[name]; !ok {
		return nil
	}
	var rev []string
	for cur := name; cur != ""; cur = r.Parent[cur].From {
		rev = append(rev, cur)
		if cur == r.Root {
			break
		}
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
