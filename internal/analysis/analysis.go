// Package analysis is a dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, built on the standard
// library's go/ast + go/types stack. The build environment has no
// module proxy, so rather than depending on x/tools the package mirrors
// its API shape (Analyzer, Pass, Diagnostic and an analysistest-style
// golden harness); migrating the analyzers to the upstream framework
// later is a mechanical change.
//
// The suite exists to enforce, at analysis time, contracts the
// simulators otherwise defend only with runtime tests: tolerance-aware
// float comparisons (the landscape/bounds code compares expected work
// everywhere), positive subtraction of the overhead (eq. 2.1), time,
// work and probability dimensions, the zero-cost-when-nil Obs
// instrumentation contract, checked sink errors and allocation-free
// hot paths.
//
// # Escape hatch
//
// A violation that is intentional is annotated in source:
//
//	//lint:allow <analyzer>[,<analyzer>...] <reason>
//
// The annotation suppresses the named analyzers on its own line and on
// the line directly below it (so it can sit at the end of the offending
// line or on its own line above). "all" suppresses every analyzer.
// Drivers apply suppression uniformly, so analyzers never need to know
// about it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects a single package
// through the Pass and reports findings via pass.Report; it returns an
// error only for internal failures, never for findings.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// annotations. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description: first line is a summary, the
	// rest explains the contract the analyzer guards.
	Doc string
	// Run performs the analysis.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed package.
// End, when valid, marks the end of the offending expression so
// drivers can render the full span (SARIF regions, editor squiggles);
// NoPos degrades to a point diagnostic.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos
	Message string
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	session *Session
	shared  map[string]any
}

// Reportf reports a formatted point diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Range is anything with a source extent — every ast.Node qualifies.
type Range interface {
	Pos() token.Pos
	End() token.Pos
}

// ReportRangef reports a formatted diagnostic spanning rng (typically
// the offending expression).
func (p *Pass) ReportRangef(rng Range, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: rng.Pos(), End: rng.End(), Message: fmt.Sprintf(format, args...)})
}

// Facts returns the facts value exported under namespace ns by an
// earlier analysis of the package at path (an import of this one), or
// nil when the run has no session or the package exported none.
func (p *Pass) Facts(path, ns string) any {
	return p.session.Facts(path, ns)
}

// ExportFacts records this package's facts value under namespace ns
// for later packages in the session. Facts are keyed by the package's
// import path with build variant decorations intact; importers look
// packages up by the plain path types.Package.Path() reports, which
// matches for everything an importer can actually name.
func (p *Pass) ExportFacts(ns string, v any) {
	p.session.SetFacts(p.Pkg.Path(), ns, v)
}

// Shared memoizes an expensive per-package computation (for example the
// flow engine's call graph and summaries) across the analyzers of one
// Session.Run call: the first analyzer to ask builds, the rest reuse.
// The key names the computation; build runs at most once per package.
func (p *Pass) Shared(key string, build func() any) any {
	if v, ok := p.shared[key]; ok {
		return v
	}
	v := build()
	p.shared[key] = v
	return v
}

// PkgBase returns the last element of a package path with build-variant
// decorations removed: "repro/internal/core [test]" and
// "repro/internal/core_test" both yield "core". Analyzers that restrict
// themselves to named packages match on this, so they behave the same
// for a package and its test variants.
func PkgBase(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return strings.TrimSuffix(path, "_test")
}

// StaticCallee resolves a call's static target: a plain or
// package-qualified function, or a method (concrete or interface)
// selected on a value, in which case method reports that the receiver
// occupies normalized argument 0. Instantiated generics resolve to
// their origin. Calls through function values, builtins and
// conversions have no static callee and yield nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, method bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ = sel.Obj().(*types.Func)
			method = fn != nil
		} else {
			fn, _ = info.Uses[fun.Sel].(*types.Func) // package-qualified call
		}
	}
	if fn == nil {
		return nil, false
	}
	return fn.Origin(), method
}

// A Finding is a resolved diagnostic: position translated, analyzer
// attached, suppression already applied. End is the zero Position for
// point diagnostics.
type Finding struct {
	Analyzer string
	Pos      token.Position
	End      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Run applies each analyzer to the package, filters findings through
// the //lint:allow suppressions collected from the files, and returns
// the survivors sorted by position. It is the single execution path
// shared by the cslint driver and the golden-test harness, so
// suppression and ordering cannot drift between them. The session
// (which may be nil) supplies facts from already analyzed dependencies
// and receives this package's exports; drivers analyzing multiple
// packages pass one session, ordered dependency-first (load.Sort), so
// interprocedural analyses see their callees' summaries.
func (s *Session) Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	sup := CollectSuppressions(fset, files)
	shared := make(map[string]any)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			session:   s,
			shared:    shared,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			if sup.Allowed(fset, d.Pos, name) {
				return
			}
			f := Finding{Analyzer: name, Pos: fset.Position(d.Pos), Message: d.Message}
			if d.End.IsValid() {
				f.End = fset.Position(d.End)
			}
			out = append(out, f)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedup: the same finding can surface twice when a package is
	// analyzed both bare and as a test variant.
	dedup := out[:0]
	for i, f := range out {
		if i > 0 && f == out[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup, nil
}
