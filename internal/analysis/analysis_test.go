package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

const calleeDepSrc = `package q

func H() {}
`

const calleeSrc = `package p

import "q"

type T struct{ f func() }

func (T) M(x int) {}

type I interface{ N() }

func F(x int) {}

func G[E any](x E) E { return x }

type Box[E any] struct{ v E }

func (b Box[E]) Get() E { return b.v }

func calls(t T, i I, fv func(), b Box[int]) {
	F(1)
	(F)(2)
	q.H()
	t.M(3)
	i.N()
	fv()
	t.f()
	_ = len("x")
	_ = float64(4)
	G(5)
	b.Get()
}
`

type pkgImporter map[string]*types.Package

func (m pkgImporter) Import(path string) (*types.Package, error) { return m[path], nil }

func TestStaticCallee(t *testing.T) {
	fset := token.NewFileSet()
	check := func(path, src string, imp types.Importer, info *types.Info) (*types.Package, *ast.File) {
		t.Helper()
		file, err := parser.ParseFile(fset, path+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatal(err)
		}
		return pkg, file
	}
	dep, _ := check("q", calleeDepSrc, nil, &types.Info{})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, file := check("p", calleeSrc, pkgImporter{"q": dep}, info)

	fn := func(p *types.Package, name string) *types.Func { return p.Scope().Lookup(name).(*types.Func) }
	method := func(typ, name string) *types.Func {
		obj, _, _ := types.LookupFieldOrMethod(pkg.Scope().Lookup(typ).Type(), false, pkg, name)
		return obj.(*types.Func)
	}
	cases := []struct {
		name   string
		fun    string // the call's function expression
		want   *types.Func
		method bool
	}{
		{"plain call", "F", fn(pkg, "F"), false},
		{"parenthesized", "(F)", fn(pkg, "F"), false},
		{"package-qualified", "q.H", fn(dep, "H"), false},
		{"method", "t.M", method("T", "M"), true},
		{"interface method", "i.N", method("I", "N"), true},
		{"function value", "fv", nil, false},
		{"func-typed field", "t.f", nil, false},
		{"builtin", "len", nil, false},
		{"conversion", "float64", nil, false},
		{"generic function", "G", fn(pkg, "G"), false},
		{"generic method", "b.Get", method("Box", "Get"), true},
	}
	calls := make(map[string]*ast.CallExpr)
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calls[types.ExprString(call.Fun)] = call
		}
		return true
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			call := calls[c.fun]
			if call == nil {
				t.Fatalf("no call to %s in the source", c.fun)
			}
			got, method := StaticCallee(info, call)
			if got != c.want || method != c.method {
				t.Errorf("StaticCallee(%s(...)) = %v, %v; want %v, %v", c.fun, got, method, c.want, c.method)
			}
		})
	}
}
