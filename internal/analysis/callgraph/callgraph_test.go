package callgraph_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// probe runs the call-graph builder over src (one file) inside a
// session and returns the resulting Graph.
func probe(t *testing.T, sess *analysis.Session, path, src string, imp types.Importer) (*callgraph.Graph, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var got *callgraph.Graph
	an := &analysis.Analyzer{
		Name: "probe",
		Doc:  "captures the call graph",
		Run: func(pass *analysis.Pass) error {
			got = callgraph.Of(pass)
			return nil
		},
	}
	if _, err := sess.Run(fset, []*ast.File{file}, pkg, info, []*analysis.Analyzer{an}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got == nil {
		t.Fatal("probe analyzer did not run")
	}
	return got, pkg
}

type importerFor struct {
	path string
	pkg  *types.Package
}

func (im importerFor) Import(path string) (*types.Package, error) {
	if path == im.path {
		return im.pkg, nil
	}
	return importer.Default().Import(path)
}

const shapeSrc = `package shape

// Sized is the dispatch seam the CHA test resolves through.
type Sized interface{ Size() int }

type Box struct{ n int }

func (b Box) Size() int { return b.n }

type Bag struct{ n int }

func (b *Bag) Size() int { return b.n }

//cs:hotpath measure-loop
func Measure(s Sized) int { return s.Size() }

func Direct() int { return Box{n: 1}.Size() }
`

func TestStaticAndDynamicEdges(t *testing.T) {
	g, _ := probe(t, analysis.NewSession(), "shape", shapeSrc, nil)

	out := g.Out("shape.Direct", "")
	if len(out) != 1 || out[0].To != "(shape.Box).Size" || out[0].Dynamic {
		t.Fatalf("Direct edges = %+v, want one static edge to (shape.Box).Size", out)
	}

	// Measure calls Sized.Size dynamically: CHA resolves both
	// implementations, value and pointer receiver.
	reach := g.ReachableFrom("shape.Measure")
	want := []string{"shape.Measure", "(*shape.Bag).Size", "(shape.Box).Size"}
	if !reflect.DeepEqual(reach.Order, want) {
		t.Errorf("Reachable(Measure) = %v, want %v", reach.Order, want)
	}
	if chain := reach.Chain("(*shape.Bag).Size"); len(chain) != 2 || chain[0] != "shape.Measure" {
		t.Errorf("Chain = %v, want [shape.Measure (*shape.Bag).Size]", chain)
	}
}

func TestHotpathRoots(t *testing.T) {
	g, _ := probe(t, analysis.NewSession(), "shape", shapeSrc, nil)
	if len(g.Roots) != 1 || g.Roots[0].Name != "shape.Measure" || g.Roots[0].Label != "measure-loop" {
		t.Fatalf("Roots = %+v, want shape.Measure labeled measure-loop", g.Roots)
	}
	if len(g.BadAnnots) != 0 {
		t.Fatalf("BadAnnots = %+v, want none", g.BadAnnots)
	}
}

func TestBadHotpathAnnots(t *testing.T) {
	g, _ := probe(t, analysis.NewSession(), "bad", `package bad

//cs:hotpath two tokens
func Rooted() {}

// A floating directive is malformed by position.
var x = 1 //cs:hotpath
`, nil)
	if len(g.Roots) != 0 {
		t.Fatalf("Roots = %+v, want none", g.Roots)
	}
	if len(g.BadAnnots) != 2 {
		t.Fatalf("BadAnnots = %+v, want 2", g.BadAnnots)
	}
}

func TestCrossPackageReachability(t *testing.T) {
	sess := analysis.NewSession()
	_, helperPkg := probe(t, sess, "cghelper", `package cghelper

func Leaf() int { return 1 }

func Mid() int { return Leaf() }
`, nil)

	g, _ := probe(t, sess, "cgroot", `package cgroot

import "cghelper"

//cs:hotpath
func Run() int { return cghelper.Mid() }
`, importerFor{"cghelper", helperPkg})

	reach := g.ReachableFrom("cgroot.Run")
	want := []string{"cgroot.Run", "cghelper.Mid", "cghelper.Leaf"}
	if !reflect.DeepEqual(reach.Order, want) {
		t.Errorf("cross-package reach = %v, want %v", reach.Order, want)
	}
	// The gateway of the imported leaf is the local call to Mid: the
	// only position in cgroot a diagnostic about Leaf can anchor to.
	edge := reach.Parent["cghelper.Leaf"]
	if edge.Gateway == nil || edge.Gateway.Callee == nil || edge.Gateway.Callee.FullName() != "cghelper.Mid" {
		t.Errorf("Leaf gateway = %+v, want the local call site of cghelper.Mid", edge)
	}

	// Without the session facts the imported function is a leaf.
	g2, _ := probe(t, analysis.NewSession(), "cgroot2", `package cgroot2

import "cghelper"

func Run() int { return cghelper.Mid() }
`, importerFor{"cghelper", helperPkg})
	reach2 := g2.ReachableFrom("cgroot2.Run")
	if len(reach2.Order) != 2 {
		t.Errorf("sessionless reach = %v, want the walk to stop at cghelper.Mid", reach2.Order)
	}
}

func TestPkgPathOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sched.ExpectedWork":    "repro/internal/sched",
		"(repro/internal/nowsim.Policy).Next":  "repro/internal/nowsim",
		"(*repro/internal/nowsim.Engine).Step": "repro/internal/nowsim",
		"(example.com/v2/pkg.T).M":             "example.com/v2/pkg",
		"main.main":                            "main",
	}
	for name, want := range cases {
		if got := callgraph.PkgPathOf(name); got != want {
			t.Errorf("PkgPathOf(%q) = %q, want %q", name, got, want)
		}
	}
}
