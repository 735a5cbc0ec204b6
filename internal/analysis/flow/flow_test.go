package flow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// probe runs the flow engine over src (one file, package p) inside a
// session and returns the resulting Info.
func probe(t *testing.T, sess *analysis.Session, path, src string, imp types.Importer) (*flow.Info, *types.Package) {
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
	var got *flow.Info
	an := &analysis.Analyzer{
		Name: "probe",
		Doc:  "captures flow info",
		Run: func(pass *analysis.Pass) error {
			got = flow.Of(pass)
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

func summaryOf(t *testing.T, in *flow.Info, pkg *types.Package, name string) flow.FuncSummary {
	t.Helper()
	obj := pkg.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no function %q in %s", name, pkg.Path())
	}
	sum, ok := in.SummaryOf(fn)
	if !ok {
		t.Fatalf("no summary for %q", name)
	}
	return sum
}

const engineSrc = `package p

func reader(x int) int { return x + 1 }

func sub(t, c float64) float64 { return t - c }

func wrapSub(t, c float64) float64 { return sub(t, c) }

func swapSub(t, c float64) float64 { return sub(c, t) }

func aliasSub(t, c float64) float64 {
	budget := t
	return budget - c
}

func clamped(t, c float64) float64 {
	if t <= c {
		return 0
	}
	return t - c
}

func loops(xs []int) int {
	n := 0
	for i := 0; i < 4; i++ {
		n += i
	}
	for _, x := range xs {
		n += x
	}
	return n
}
`

func TestRawSubs(t *testing.T) {
	in, pkg := probe(t, analysis.NewSession(), "p", engineSrc, nil)

	for _, tc := range []struct {
		fn   string
		want flow.RawSub
	}{
		{"sub", flow.RawSub{X: 0, Y: 1}},
		{"wrapSub", flow.RawSub{X: 0, Y: 1}},
		{"swapSub", flow.RawSub{X: 1, Y: 0}},
		// A single-assignment alias resolves to the parameter it names.
		{"aliasSub", flow.RawSub{X: 0, Y: 1}},
	} {
		subs := summaryOf(t, in, pkg, tc.fn).RawSubs
		if len(subs) != 1 || subs[0] != tc.want {
			t.Errorf("%s RawSubs = %v, want [%v]", tc.fn, subs, tc.want)
		}
	}
	// A comparison of the same pair before subtracting is the
	// PositiveSub clamp shape: not a raw difference.
	for _, fn := range []string{"reader", "clamped"} {
		if subs := summaryOf(t, in, pkg, fn).RawSubs; len(subs) != 0 {
			t.Errorf("%s RawSubs = %v, want none", fn, subs)
		}
	}
}

func TestLoopVars(t *testing.T) {
	in, _ := probe(t, analysis.NewSession(), "p", engineSrc, nil)
	var fi *flow.FuncInfo
	for _, f := range in.Funcs {
		if f.Obj.Name() == "loops" {
			fi = f
		}
	}
	if fi == nil {
		t.Fatal("no FuncInfo for loops")
	}
	got := map[string]bool{}
	for id, obj := range in.TypesInfo.Defs {
		v, ok := obj.(*types.Var)
		if ok && v.Pos() > fi.Decl.Pos() && v.Pos() < fi.Decl.End() {
			got[id.Name] = fi.IsLoopVar(v)
		}
	}
	want := map[string]bool{"n": false, "i": true, "x": true}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("IsLoopVar(%s) = %v, want %v", name, got[name], w)
		}
	}
}

// importerFor resolves one pre-checked package and delegates the rest.
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

func TestCrossPackageFacts(t *testing.T) {
	sess := analysis.NewSession()
	inA, pkgA := probe(t, sess, "fixa", `package fixa

func Sub(t, c float64) float64 { return t - c }
`, nil)
	if _, ok := inA.SummaryOf(pkgA.Scope().Lookup("Sub").(*types.Func)); !ok {
		t.Fatal("fixa.Sub has no local summary")
	}

	const wrapSrc = `package fixb

import "fixa"

func Wrap(t, c float64) float64 { return fixa.Sub(t, c) }
`
	inB, pkgB := probe(t, sess, "fixb", wrapSrc, importerFor{"fixa", pkgA})
	wrap := summaryOf(t, inB, pkgB, "Wrap")
	if len(wrap.RawSubs) != 1 || wrap.RawSubs[0] != (flow.RawSub{X: 0, Y: 1}) {
		t.Errorf("Wrap RawSubs = %v, want [{0 1}]", wrap.RawSubs)
	}

	// Without the session, the callee is opaque: no summary to compose.
	inC, pkgC := probe(t, analysis.NewSession(), "fixb", wrapSrc, importerFor{"fixa", pkgA})
	if subs := summaryOf(t, inC, pkgC, "Wrap").RawSubs; len(subs) != 0 {
		t.Errorf("sessionless Wrap RawSubs = %v, want none", subs)
	}
}
