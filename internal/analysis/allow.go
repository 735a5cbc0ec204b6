package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowMarker introduces an in-source suppression:
//
//	//lint:allow floatcmp exact plateau detection is intentional
//	//lint:allow floatcmp,nonnegwork reason...
//
// The directive names one or more analyzers (comma-separated, no
// spaces) followed by a free-form justification. By convention a reason
// is always given; the parser does not enforce it, but reviewers do.
const allowMarker = "lint:allow"

// Suppressions records which analyzers are allowed on which source
// lines. An annotation covers its own line and the next line, so both
// the trailing-comment and the line-above styles work.
type Suppressions struct {
	byFile map[string]map[int][]string // filename -> line -> analyzer names
}

// CollectSuppressions scans every comment in files for lint:allow
// directives. Files must have been parsed with parser.ParseComments.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byFile: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowMarker))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byFile[pos.Filename] = lines
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						lines[pos.Line] = append(lines[pos.Line], name)
					}
				}
			}
		}
	}
	return s
}

// Allowed reports whether analyzer name is suppressed at pos: an
// annotation on the same line or on the line directly above applies.
func (s *Suppressions) Allowed(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	lines := s.byFile[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, n := range lines[line] {
			if n == name || n == "all" {
				return true
			}
		}
	}
	return false
}
