package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// The //cs:hotpath grammar, the allocation-budget sibling of //cs:unit
// (internal/analysis/dim): a directive on a function declaration's doc
// comment marks the function as a hot-path root, the entry point of a
// region whose transitive callees the hotalloc analyzer holds to a
// zero-allocation budget.
//
//	//cs:hotpath
//	func (c *Cache) Get(key string) (any, bool)
//
//	//cs:hotpath episode-loop
//	func runEpisode(res *EpisodeResult, policy Policy, c, reclaim float64, emit func(EpisodeEvent))
//
// The payload is at most one label token — a name for the root in
// diagnostics ([A-Za-z0-9] then [A-Za-z0-9._/-]*); a bare directive
// labels the root with the function's own name. Anything else is
// malformed and reported, so a typo cannot silently unmark a root.

// A HotpathAnnot is one parsed //cs:hotpath annotation.
type HotpathAnnot struct {
	// Label names the root in diagnostics; "" means "use the function
	// name".
	Label string
}

// String renders the canonical directive text without the comment
// marker: "cs:hotpath" or "cs:hotpath label". Parsing the render of a
// parsed annotation yields the annotation back; the fuzz harness pins
// that round trip.
func (h HotpathAnnot) String() string {
	return analysis.Directive{Name: "hotpath", Payload: h.Label}.String()
}

// ParseHotpathDirective parses the payload of a cs:hotpath directive
// (the text after the selector).
func ParseHotpathDirective(payload string) (HotpathAnnot, error) {
	fields := splitSpace(payload)
	if len(fields) == 0 {
		return HotpathAnnot{}, nil
	}
	if len(fields) > 1 {
		return HotpathAnnot{}, fmt.Errorf("want at most one label, got %d tokens", len(fields))
	}
	label := fields[0]
	if !validLabel(label) {
		return HotpathAnnot{}, fmt.Errorf("bad label %q: want [A-Za-z0-9] then [A-Za-z0-9._/-]*", label)
	}
	return HotpathAnnot{Label: label}, nil
}

// splitSpace is strings.Fields restricted to the blanks the directive
// scanner itself treats as separators, so parse and render agree on
// what one token is.
func splitSpace(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}

func validLabel(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '/' || c == '-'):
		default:
			return false
		}
	}
	return len(s) > 0
}

// A Root is one //cs:hotpath-annotated function declared in the
// analyzed package.
type Root struct {
	Name  string // types.Func full name
	Label string // diagnostic label (function name when unlabeled)
	Pos   token.Pos
}

// A BadAnnot is one malformed //cs:hotpath annotation; the hotalloc
// analyzer surfaces these so typos do not silently unmark a root.
type BadAnnot struct {
	Pos token.Pos
	Msg string
}

// collectHotpath scans the package's files for cs:hotpath directives:
// well-formed ones on function declarations become Roots, everything
// else (bad payloads, directives not attached to a function's doc)
// becomes a BadAnnot.
func (g *Graph) collectHotpath() {
	for _, file := range g.pass.Files {
		// Directives consumed by a function doc comment; any leftover
		// hotpath directive floats free and is malformed by position.
		used := make(map[*ast.Comment]bool)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			d, c, ok := analysis.GroupDirective(fd.Doc, "hotpath")
			if !ok {
				continue
			}
			used[c] = true
			annot, err := ParseHotpathDirective(d.Payload)
			if err != nil {
				g.BadAnnots = append(g.BadAnnots, BadAnnot{c.Pos(), err.Error()})
				continue
			}
			obj, _ := g.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			label := annot.Label
			if label == "" {
				label = fd.Name.Name
			}
			g.Roots = append(g.Roots, Root{Name: obj.FullName(), Label: label, Pos: c.Pos()})
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if d, ok := analysis.CommentDirective(c); ok && d.Name == "hotpath" && !used[c] {
					g.BadAnnots = append(g.BadAnnots, BadAnnot{c.Pos(), "cs:hotpath must sit in a function declaration's doc comment"})
				}
			}
		}
	}
}
