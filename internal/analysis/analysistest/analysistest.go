// Package analysistest runs an analyzer over golden test fixtures and
// checks its findings against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Fixture packages live under <testdata>/src/<importpath>/ and mark
// expected findings with trailing comments:
//
//	if a == b { // want "exact floating-point comparison"
//
// Each quoted string is a regular expression that must match the
// message of exactly one finding on that line; lines without a want
// comment must produce no findings. Because the harness routes findings
// through the same suppression pass as the cslint driver, a fixture line
// annotated with //lint:allow is asserted as a non-finding.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory (tests run in their package directory).
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// Run loads each fixture package from testdata/src and applies the
// analyzer, reporting any mismatch between findings and want comments
// as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	cfg := load.Config{
		Dir:     testdata,
		SrcDirs: []string{filepath.Join(testdata, "src")},
		// Test files participate: the real drivers analyze them too, and
		// some analyzers (printlint) exempt them explicitly.
		Tests: true,
	}
	pkgs, err := cfg.Load(pkgpaths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	// Analyze dependency-first with one session so interprocedural
	// analyzers see facts for fixture packages that depend on each
	// other, exactly as the real drivers provide them.
	sess := analysis.NewSession()
	for _, pkg := range load.Sort(pkgs) {
		findings, err := sess.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", pkg.ImportPath, err)
		}
		check(t, pkg, findings)
	}
}

type key struct {
	file string
	line int
}

// check compares findings against the fixture's want comments.
func check(t *testing.T, pkg *load.Package, findings []analysis.Finding) {
	t.Helper()
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		collectWants(t, pkg.Fset, f, wants)
	}
	got := make(map[key][]string)
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		got[k] = append(got[k], f.Message)
	}
	for k, res := range wants {
		msgs := got[k]
		for _, re := range res {
			idx := -1
			for i, m := range msgs {
				if re.MatchString(m) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Errorf("%s:%d: no finding matching %q (got %v)", k.file, k.line, re, msgs)
				continue
			}
			msgs = append(msgs[:idx], msgs[idx+1:]...)
		}
		if len(msgs) > 0 {
			t.Errorf("%s:%d: unexpected findings beyond want comments: %v", k.file, k.line, msgs)
		}
		delete(got, k)
	}
	for k, msgs := range got {
		t.Errorf("%s:%d: unexpected findings: %v", k.file, k.line, msgs)
	}
}

// collectWants parses `// want "re" "re"` comments.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, wants map[key][]*regexp.Regexp) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			k := key{pos.Filename, pos.Line}
			for {
				rest = strings.TrimSpace(rest)
				if rest == "" {
					break
				}
				lit, err := nextString(rest)
				if err != nil {
					t.Fatalf("%s: bad want comment %q: %v", pos, c.Text, err)
				}
				pat, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s: bad want literal %s: %v", pos, lit, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants[k] = append(wants[k], re)
				rest = rest[len(lit):]
			}
		}
	}
}

// nextString returns the leading Go string literal of s.
func nextString(s string) (string, error) {
	if s == "" || (s[0] != '"' && s[0] != '`') {
		return "", fmt.Errorf("expected string literal, have %q", s)
	}
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case s[i] == '\\' && quote == '"':
			i++
		case s[i] == quote:
			return s[:i+1], nil
		}
	}
	return "", fmt.Errorf("unterminated string in %q", s)
}
