// Package load parses and type-checks packages of the enclosing module
// for static analysis, using only the standard library.
//
// The usual loader for analysis drivers, golang.org/x/tools/go/packages,
// is unavailable in this build environment, so this package implements
// the subset the lint suite needs: pattern expansion ("./...", package
// directories, or bare import paths for test fixtures), module-aware
// import resolution (module packages are type-checked from source in
// dependency order), GOPATH-style fixture roots for golden tests, and
// stdlib imports through go/importer's "source" importer, which
// type-checks GOROOT sources and therefore needs no pre-built export
// data or network access.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config directs a load.
type Config struct {
	// Dir anchors relative patterns and the module lookup (go.mod is
	// searched for in Dir and its parents). Defaults to ".".
	Dir string
	// SrcDirs are GOPATH-style roots consulted first when resolving a
	// bare import path: an import "p" resolves to <srcdir>/p if that
	// directory exists. Golden tests point this at testdata/src so
	// fixtures can supply fake dependencies.
	SrcDirs []string
	// Tests includes _test.go files: in-package test files are merged
	// into their package, and external test packages are returned as
	// separate packages with an "_test" path suffix.
	Tests bool
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

type loader struct {
	cfg        Config
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	std        types.Importer
	deps       map[string]*types.Package // import cache (no test files)
	loading    map[string]bool           // cycle detection
}

// Load expands the patterns and returns the type-checked packages.
// Patterns containing a path separator (or equal to ".") name
// directories, with the "/..." suffix walking recursively; other
// patterns are import paths resolved through SrcDirs and the module.
func (c Config) Load(patterns ...string) ([]*Package, error) {
	if c.Dir == "" {
		c.Dir = "."
	}
	absDir, err := filepath.Abs(c.Dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		cfg:     c,
		fset:    token.NewFileSet(),
		deps:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	l.moduleDir, l.modulePath = findModule(absDir)
	// The source importer type-checks GOROOT packages from source; with
	// cgo enabled it would shell out to the cgo tool for packages like
	// net. Analysis needs only the pure-Go API surface, so force the
	// nocgo variants.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil)

	dirs, paths, err := l.expand(absDir, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		got, err := l.loadTarget(d, l.importPathFor(d))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	for _, p := range paths {
		dir, err := l.resolve(p)
		if err != nil {
			return nil, err
		}
		got, err := l.loadTarget(dir, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

// ModuleRoot walks up from dir looking for go.mod and returns the
// enclosing module's root directory, or dir itself when no module is
// found. Drivers anchor diagnostic and baseline paths here, so a
// baseline written at the repo root suppresses the same findings no
// matter which subdirectory cslint is invoked from.
func ModuleRoot(dir string) string {
	if root, _ := findModule(dir); root != "" {
		return root
	}
	return dir
}

// findModule walks up from dir looking for go.mod and returns the
// module root and module path ("", "" when there is none).
func findModule(dir string) (root, path string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.Trim(strings.TrimSpace(rest), `"`)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// expand splits patterns into package directories and import paths.
func (l *loader) expand(base string, patterns []string) (dirs, paths []string, err error) {
	seen := make(map[string]bool)
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "..." || strings.HasSuffix(pat, "/...") || strings.HasSuffix(pat, string(filepath.Separator)+"..."):
			root := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			root = strings.TrimSuffix(root, string(filepath.Separator))
			if root == "" {
				root = "."
			}
			if !filepath.IsAbs(root) {
				root = filepath.Join(base, root)
			}
			werr := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				// A directory with its own go.mod is a nested module,
				// which "./..." excludes just as the go command does.
				if p != root {
					if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
						return filepath.SkipDir
					}
				}
				if hasGoFiles(p) {
					addDir(p)
				}
				return nil
			})
			if werr != nil {
				return nil, nil, werr
			}
		case pat == "." || strings.ContainsAny(pat, "./\\"):
			d := pat
			if !filepath.IsAbs(d) {
				d = filepath.Join(base, d)
			}
			if !hasGoFiles(d) {
				return nil, nil, fmt.Errorf("load: no Go files in %s", d)
			}
			addDir(d)
		default:
			paths = append(paths, pat)
		}
	}
	sort.Strings(dirs)
	return dirs, paths, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			return true
		}
	}
	return false
}

// importPathFor derives the canonical import path of a module
// directory; outside any module the directory path itself is used.
func (l *loader) importPathFor(dir string) string {
	if l.moduleDir != "" {
		if rel, err := filepath.Rel(l.moduleDir, dir); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				return l.modulePath
			}
			return l.modulePath + "/" + filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(dir)
}

// resolve maps an import path to its source directory: fixture roots
// first (so golden tests can shadow), then the module tree.
func (l *loader) resolve(path string) (string, error) {
	for _, sd := range l.cfg.SrcDirs {
		d := filepath.Join(sd, filepath.FromSlash(path))
		if hasGoFiles(d) {
			return d, nil
		}
	}
	if l.modulePath != "" {
		if path == l.modulePath {
			return l.moduleDir, nil
		}
		if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
			d := filepath.Join(l.moduleDir, filepath.FromSlash(rest))
			if hasGoFiles(d) {
				return d, nil
			}
		}
	}
	return "", fmt.Errorf("load: cannot resolve import %q", path)
}

// parseDir parses every buildable .go file in dir into three groups:
// the package's own files, in-package _test.go files, and external
// (package foo_test) test files.
func (l *loader) parseDir(dir string) (base, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		case strings.HasSuffix(n, "_test.go"):
			inTest = append(inTest, f)
		default:
			base = append(base, f)
		}
	}
	if len(base) == 0 && len(inTest) == 0 && len(extTest) == 0 {
		return nil, nil, nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	return base, inTest, extTest, nil
}

// loadTarget loads the package in dir for analysis, optionally with its
// test files and its external test package.
func (l *loader) loadTarget(dir, importPath string) ([]*Package, error) {
	base, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	files := base
	if l.cfg.Tests {
		files = append(append([]*ast.File{}, base...), inTest...)
	}
	var self *types.Package
	if len(files) > 0 {
		p, err := l.check(importPath, dir, files, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		self = p.Types
	}
	if l.cfg.Tests && len(extTest) > 0 {
		// The external test package imports the package under test; give
		// it the test-augmented version just checked, like the go tool's
		// test variants.
		override := map[string]*types.Package{importPath: self}
		p, err := l.check(importPath+"_test", dir, extTest, override)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// check type-checks one package with full syntax and type information.
func (l *loader) check(path, dir string, files []*ast.File, override map[string]*types.Package) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tpkg, err := l.typecheck(path, files, info, override)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

const maxTypeErrors = 10

func (l *loader) typecheck(path string, files []*ast.File, info *types.Info, override map[string]*types.Package) (*types.Package, error) {
	var terrs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if override != nil && override[p] != nil {
				return override[p], nil
			}
			return l.importPkg(p)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
		Error: func(err error) {
			if len(terrs) < maxTypeErrors {
				terrs = append(terrs, err)
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(terrs) > 0 {
		msgs := make([]string, len(terrs))
		for i, e := range terrs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("load: type errors in %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return tpkg, nil
}

// importPkg resolves and type-checks a dependency (without test files),
// caching the result. Standard-library paths fall through to the source
// importer.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	dir, err := l.resolve(path)
	if err != nil {
		// Not a module or fixture package: assume standard library.
		return l.std.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	base, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	tpkg, err := l.typecheck(path, base, nil, nil)
	if err != nil {
		return nil, err
	}
	l.deps[path] = tpkg
	return tpkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
