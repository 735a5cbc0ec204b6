// Package driver is the command-line front end of cmd/cslint:
// `cslint [-sarif] [packages]` loads packages from source with the
// in-repo loader (dependency-first, so interprocedural facts flow),
// prints findings to stdout and exits 1 if any. -sarif renders the same
// findings as a SARIF 2.1.0 log.
package driver

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Main runs the cslint driver and returns the process exit code:
// 0 clean, 1 findings (or load errors), 2 usage errors.
func Main(argv []string, stdout, stderr io.Writer, analyzers []*analysis.Analyzer) int {
	prog := "cslint"
	if len(argv) > 0 {
		prog = argv[0]
		argv = argv[1:]
	}

	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] [packages]\n\n", prog)
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "cslint:", err)
		return 2
	}
	cfg := load.Config{Dir: dir, Tests: true}
	pkgs, err := cfg.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "cslint:", err)
		return 1
	}
	sess := analysis.NewSession()
	var all []analysis.Finding
	for _, pkg := range load.Sort(pkgs) {
		findings, err := sess.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
		if err != nil {
			fmt.Fprintln(stderr, "cslint:", err)
			return 2
		}
		all = append(all, findings...)
	}
	// Paths in output are repo-root-relative — anchored at the
	// enclosing go.mod, not the invocation directory — so a run from
	// any subdirectory names files the way a run from the root does.
	root := load.ModuleRoot(dir)
	for i := range all {
		if rel, err := filepath.Rel(root, all[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			all[i].Pos.Filename = rel
		}
	}

	if *sarifOut {
		if err := writeSARIF(stdout, analyzers, all); err != nil {
			fmt.Fprintln(stderr, "cslint:", err)
			return 2
		}
	} else {
		for _, f := range all {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}
