package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc returns the body of the first function in src.
func parseFunc(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// reaches reports whether to is reachable from from along Succs.
func reaches(from, to *Block) bool {
	seen := make(map[*Block]bool)
	var walk func(*Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, e := range b.Succs {
			if walk(e.To) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestStraightLine(t *testing.T) {
	g := Build(parseFunc(t, `func f() { x := 1; y := x; _ = y }`))
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry holds %d nodes, want 3\n%s", len(g.Entry.Nodes), g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestIfElseBranchEdges(t *testing.T) {
	g := Build(parseFunc(t, `func f(a int) int {
		if a > 0 {
			a = 1
		} else {
			a = 2
		}
		return a
	}`))
	// The entry block ends in the condition with one true and one
	// false edge carrying it.
	var cond, neg int
	for _, e := range g.Entry.Succs {
		if e.Cond == nil {
			t.Fatalf("if dispatch has unconditional successor:\n%s", g)
		}
		cond++
		if e.Negated {
			neg++
		}
	}
	if cond != 2 || neg != 1 {
		t.Fatalf("dispatch edges = %d (%d negated), want 2 (1)\n%s", cond, neg, g)
	}
}

func TestIfWithoutElseFallsThrough(t *testing.T) {
	g := Build(parseFunc(t, `func f(a int) {
		if a > 0 {
			return
		}
		a++
	}`))
	// The then-branch returns: its block must have Exit as successor,
	// and the fall-through path must still reach Exit via the a++ block.
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	foundNegated := false
	for _, e := range g.Entry.Succs {
		if e.Cond != nil && e.Negated {
			foundNegated = true
			if reaches(e.To, g.Exit) == false {
				t.Fatalf("false edge does not reach exit:\n%s", g)
			}
		}
	}
	if !foundNegated {
		t.Fatalf("no negated fall-through edge:\n%s", g)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := Build(parseFunc(t, `func f() {
		s := 0
		for i := 0; i < 10; i++ {
			s += i
		}
		_ = s
	}`))
	heads := 0
	for _, blk := range g.Blocks {
		if blk.LoopHead() {
			heads++
		}
	}
	if heads != 1 {
		t.Fatalf("loop heads = %d, want 1\n%s", heads, g)
	}
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestRangeHeaderShallow(t *testing.T) {
	g := Build(parseFunc(t, `func f(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}`))
	var hdr *RangeHeader
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if rh, ok := n.(*RangeHeader); ok {
				hdr = rh
			}
			// The body statement s += x must not appear inside any other
			// node: blocks hold compound loops only via RangeHeader.
			if _, ok := n.(*ast.RangeStmt); ok {
				t.Fatalf("raw RangeStmt in node list:\n%s", g)
			}
		}
	}
	if hdr == nil {
		t.Fatalf("no RangeHeader recorded:\n%s", g)
	}
	if hdr.End() != hdr.Range.X.End() {
		t.Fatal("RangeHeader.End should stop at the ranged expression")
	}
	heads := 0
	for _, blk := range g.Blocks {
		if blk.LoopHead() {
			heads++
		}
	}
	if heads != 1 {
		t.Fatalf("loop heads = %d, want 1\n%s", heads, g)
	}
}

func TestBreakContinue(t *testing.T) {
	g := Build(parseFunc(t, `func f(xs []int) int {
		s := 0
		for _, x := range xs {
			if x < 0 {
				continue
			}
			if x > 100 {
				break
			}
			s += x
		}
		return s
	}`))
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := Build(parseFunc(t, `func f() int {
		s := 0
	outer:
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i*j > 2 {
					break outer
				}
				s++
			}
		}
		return s
	}`))
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestSwitchWithAndWithoutDefault(t *testing.T) {
	withDefault := Build(parseFunc(t, `func f(a int) int {
		switch a {
		case 1:
			return 1
		default:
			return 2
		}
	}`))
	// Every path returns: after-block should have been pruned or be
	// unreachable; Exit reachable.
	if !reaches(withDefault.Entry, withDefault.Exit) {
		t.Fatalf("exit unreachable:\n%s", withDefault)
	}

	noDefault := Build(parseFunc(t, `func f(a int) int {
		switch a {
		case 1:
			return 1
		}
		return 0
	}`))
	if !reaches(noDefault.Entry, noDefault.Exit) {
		t.Fatalf("exit unreachable:\n%s", noDefault)
	}
}

func TestFallthrough(t *testing.T) {
	g := Build(parseFunc(t, `func f(a int) int {
		r := 0
		switch a {
		case 1:
			r = 1
			fallthrough
		case 2:
			r += 2
		}
		return r
	}`))
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	// The case-1 body must reach the case-2 body without passing the
	// dispatch again: find the block containing "r = 1" and check a
	// successor chain hits "r += 2" before after.
	var b1, b2 *Block
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				switch as.Tok {
				case token.ASSIGN:
					b1 = blk
				case token.ADD_ASSIGN:
					b2 = blk
				}
			}
		}
	}
	if b1 == nil || b2 == nil {
		t.Fatalf("case bodies not found:\n%s", g)
	}
	if !reaches(b1, b2) {
		t.Fatalf("fallthrough edge missing from case 1 to case 2:\n%s", g)
	}
}

func TestReturnAndPanicEdges(t *testing.T) {
	g := Build(parseFunc(t, `func f(a int) int {
		if a < 0 {
			panic("negative")
		}
		return a
	}`))
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	// The panic block's only successor is Exit.
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok || !isPanicCall(es.X) {
				continue
			}
			if len(blk.Succs) != 1 || blk.Succs[0].To != g.Exit {
				t.Fatalf("panic block does not jump to exit:\n%s", g)
			}
		}
	}
}

func TestSelect(t *testing.T) {
	g := Build(parseFunc(t, `func f(a, b chan int) int {
		select {
		case v := <-a:
			return v
		case <-b:
			return 0
		}
	}`))
	if !reaches(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestNilBody(t *testing.T) {
	g := Build(nil)
	if !reaches(g.Entry, g.Exit) {
		t.Fatal("nil body: exit unreachable")
	}
}

func TestInfiniteLoopPrunesAfter(t *testing.T) {
	g := Build(parseFunc(t, `func f() {
		for {
			_ = 1
		}
	}`))
	// Nothing after the loop: Exit is kept but has no predecessors.
	if len(g.Exit.Preds) != 0 {
		t.Fatalf("infinite loop should leave exit predecessor-free:\n%s", g)
	}
}
