package dim_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/dim"
)

// probe runs the dimension engine over src inside a session and
// returns the resulting Info.
func probe(t *testing.T, sess *analysis.Session, path, src string, imp types.Importer) (*dim.Info, *types.Package) {
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
	var got *dim.Info
	an := &analysis.Analyzer{
		Name: "probe",
		Doc:  "captures dim info",
		Run: func(pass *analysis.Pass) error {
			got = dim.Of(pass)
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

func funcDimsOf(t *testing.T, in *dim.Info, pkg *types.Package, name string) dim.FuncDims {
	t.Helper()
	fn, ok := pkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %q in %s", name, pkg.Path())
	}
	return in.FuncDimsOf(fn)
}

func TestAlgebra(t *testing.T) {
	cases := []struct {
		op   string
		a, b dim.Dim
		want dim.Dim
	}{
		{"join", dim.Unknown, dim.Time, dim.Time},
		{"join", dim.Time, dim.Time, dim.Time},
		{"join", dim.Time, dim.Work, dim.Top},
		{"join", dim.Top, dim.Time, dim.Top},
		{"mul", dim.Probability, dim.Probability, dim.Probability},
		{"mul", dim.Probability, dim.Work, dim.Work},
		{"mul", dim.Time, dim.Probability, dim.Time},
		{"mul", dim.Rate, dim.Time, dim.Probability},
		{"mul", dim.Count, dim.Time, dim.Time},
		{"mul", dim.Time, dim.Unknown, dim.Unknown},
		{"mul", dim.Time, dim.Work, dim.Top},
		{"div", dim.Time, dim.Time, dim.Dimensionless},
		{"div", dim.Probability, dim.Time, dim.Rate},
		{"div", dim.Probability, dim.Rate, dim.Time},
		{"div", dim.Work, dim.Count, dim.Work},
		{"div", dim.Unknown, dim.Time, dim.Unknown},
		{"div", dim.Work, dim.Rate, dim.Top},
	}
	for _, tc := range cases {
		var got dim.Dim
		switch tc.op {
		case "join":
			got = dim.Join(tc.a, tc.b)
		case "mul":
			got = dim.Mul(tc.a, tc.b)
		case "div":
			got = dim.Div(tc.a, tc.b)
		}
		if got != tc.want {
			t.Errorf("%s(%v, %v) = %v, want %v", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

const engineSrc = `package p

type sched struct {
	period float64 //cs:unit time
	steps  int     //cs:unit count
}

//cs:unit t=time c=time return=work
func posSub(t, c float64) float64 {
	if t < c {
		return 0
	}
	return t - c
}

func wrap(t, c float64) float64 { return posSub(t, c) }

//cs:unit p=probability
func expected(t, c, p float64) float64 {
	w := posSub(t, c)
	return w * p
}

func mixed(s sched, b bool) float64 {
	x := s.period
	if b {
		x = float64(s.steps)
	}
	return x
}

type life interface {
	//cs:unit t=time return=probability
	p(t float64) float64
}

func viaIface(l life, t float64) float64 { return l.p(t) }

var horizon float64 //cs:unit time

func readHorizon() float64 { return horizon }

func anon() float64 { return 0.5 }

func pinned() float64 {
	d := anon() //cs:unit time
	return d
}

func sumBounds(bounds []float64) float64 {
	acc := 0.0
	for _, b := range bounds {
		acc += b
	}
	return acc
}
`

func TestAnnotationsAndInference(t *testing.T) {
	in, pkg := probe(t, analysis.NewSession(), "p", engineSrc, nil)

	if len(in.BadAnnots) != 0 {
		t.Fatalf("unexpected bad annotations: %v", in.BadAnnots)
	}
	cases := []struct {
		fn   string
		want dim.Dim
	}{
		{"posSub", dim.Work},          // declared
		{"wrap", dim.Work},            // inferred through local call
		{"expected", dim.Work},        // work × probability = work
		{"mixed", dim.Top},            // time joined with count
		{"viaIface", dim.Probability}, // annotated interface method
		{"readHorizon", dim.Time},     // annotated package variable
		{"pinned", dim.Time},          // trailing //cs:unit on :=
		{"sumBounds", dim.Unknown},    // nothing claimed
	}
	for _, tc := range cases {
		if got := funcDimsOf(t, in, pkg, tc.fn).Result(0); got != tc.want {
			t.Errorf("%s result dim = %v, want %v", tc.fn, got, tc.want)
		}
	}
	if got := funcDimsOf(t, in, pkg, "posSub").Param(0); got != dim.Time {
		t.Errorf("posSub param 0 = %v, want time", got)
	}
}

func TestBuiltinSeeds(t *testing.T) {
	// Analyzing under the real package path lets the built-in table
	// seed PositiveSub even with no annotation in the source.
	src := `package sched

func PositiveSub(t, c float64) float64 {
	if t < c {
		return 0
	}
	return t - c
}

func viaBuiltin(t, c float64) float64 { return PositiveSub(t, c) }
`
	in, pkg := probe(t, analysis.NewSession(), "repro/internal/sched", src, nil)
	if got := funcDimsOf(t, in, pkg, "PositiveSub").Result(0); got != dim.Work {
		t.Errorf("PositiveSub result = %v, want work", got)
	}
	if got := funcDimsOf(t, in, pkg, "viaBuiltin").Result(0); got != dim.Work {
		t.Errorf("viaBuiltin result = %v, want work (inferred through builtin)", got)
	}
}

func TestBadAnnotations(t *testing.T) {
	src := `package p

var x float64 //cs:unit flux

//cs:unit q=time
func f(t float64) float64 { return t }
`
	in, _ := probe(t, analysis.NewSession(), "p", src, nil)
	if len(in.BadAnnots) != 2 {
		t.Fatalf("bad annotations = %d, want 2: %v", len(in.BadAnnots), in.BadAnnots)
	}
}

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("no package %q", path)
}

func TestCrossPackageFacts(t *testing.T) {
	sess := analysis.NewSession()
	libSrc := `package lib

type Sched struct {
	Period float64 //cs:unit time
}

//cs:unit t=time c=time return=work
func PosSub(t, c float64) float64 {
	if t < c {
		return 0
	}
	return t - c
}
`
	_, libPkg := probe(t, sess, "lib", libSrc, nil)

	useSrc := `package use

import "lib"

func wrap(t, c float64) float64 { return lib.PosSub(t, c) }

func period(s lib.Sched) float64 { return s.Period }
`
	in, usePkg := probe(t, sess, "use", useSrc, mapImporter{"lib": libPkg})
	if got := funcDimsOf(t, in, usePkg, "wrap").Result(0); got != dim.Work {
		t.Errorf("wrap result = %v, want work (via imported facts)", got)
	}
	if got := funcDimsOf(t, in, usePkg, "period").Result(0); got != dim.Time {
		t.Errorf("period result = %v, want time (field dim via imported facts)", got)
	}
}
