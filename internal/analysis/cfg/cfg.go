// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, the substrate of the cslint suite's
// abstract-interpretation analyzers (unitflow's dimension propagation
// and probrange's interval analysis). A graph is a set of basic blocks
// holding the function's statements in execution order, connected by
// edges that remember the branch condition they encode, so a dataflow
// client can refine its abstract state along the true and false arms of
// a comparison.
//
// The graph models if/else, for and range loops (with back edges),
// switch, type switch and select dispatch, break/continue (labeled and
// unlabeled), returns and explicit panic calls (edges to Exit).
//
// # Soundness caveats
//
// This is a linter's CFG, not a compiler's: goto statements are
// over-approximated as jumps to Exit; fallthrough falls into the next
// case body; a call that panics is assumed to return (panic edges
// exist only for explicit panic(...) calls); and function literals are
// opaque values here — their bodies get their own graphs via Build on
// the literal, not edges in the enclosing graph.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Graph is the control-flow graph of one function body. Entry has no
// predecessors; Exit collects every return, panic and fall-off-the-end
// path and holds no statements of its own.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// A Block is a maximal straight-line sequence of AST nodes: statements,
// plus the condition expressions of the branches the block ends in.
type Block struct {
	Index int
	// Nodes holds the block's statements (and branch condition
	// expressions, last) in execution order.
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// A RangeHeader stands in for a range loop's per-iteration binding in
// a block's node list: it exposes the Key, Value and X expressions of
// the loop without embedding the body (whose statements live in their
// own blocks). It implements ast.Node for positioning only; it is not
// a real AST node, so clients must type-switch on it before handing
// block nodes to ast.Inspect.
type RangeHeader struct {
	Range *ast.RangeStmt
}

// Pos implements ast.Node.
func (r *RangeHeader) Pos() token.Pos { return r.Range.Pos() }

// End implements ast.Node: the header ends where the ranged expression
// does, before the body.
func (r *RangeHeader) End() token.Pos { return r.Range.X.End() }

// An Edge is one control transfer. Cond, when non-nil, is the branch
// condition governing the transfer: taken when the condition evaluates
// to !Negated. Unconditional transfers have a nil Cond.
type Edge struct {
	From, To *Block
	Cond     ast.Expr
	Negated  bool
}

// Build constructs the graph of body. body is typically
// (*ast.FuncDecl).Body or (*ast.FuncLit).Body; a nil body yields a
// two-block graph with Entry wired straight to Exit.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	cur := b.g.Entry
	if body != nil {
		cur = b.stmtList(cur, body.List)
	}
	// Falling off the end of the body reaches Exit.
	b.edge(cur, b.g.Exit, nil, false)
	b.prune()
	return b.g
}

type loopFrame struct {
	label           string
	continueTo, brk *Block
}

type builder struct {
	g     *Graph
	loops []loopFrame // innermost last; switch/select frames have nil continueTo
	label string      // pending label for the next loop/switch statement
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge connects from -> to unless from is nil (unreachable flow).
func (b *builder) edge(from, to *Block, cond ast.Expr, negated bool) {
	if from == nil || to == nil {
		return
	}
	e := &Edge{From: from, To: to, Cond: cond, Negated: negated}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// stmtList threads the statements through cur, returning the block
// control falls out of (nil when the tail is unreachable).
func (b *builder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

func (b *builder) add(cur *Block, n ast.Node) {
	if cur != nil {
		cur.Nodes = append(cur.Nodes, n)
	}
}

func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		// Remember the label for the loop/switch it names; other labeled
		// statements are inlined (their goto targets are approximated).
		saved := b.label
		b.label = s.Label.Name
		out := b.stmt(cur, s.Stmt)
		b.label = saved
		return out

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		b.add(cur, s.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB, s.Cond, false)
		thenOut := b.stmtList(thenB, s.Body.List)
		after := b.newBlock()
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB, s.Cond, true)
			elseOut := b.stmt(elseB, s.Else)
			b.edge(elseOut, after, nil, false)
		} else {
			b.edge(cur, after, s.Cond, true)
		}
		b.edge(thenOut, after, nil, false)
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head, nil, false)
		after := b.newBlock()
		var bodyB *Block
		if s.Cond != nil {
			b.add(head, s.Cond)
			bodyB = b.newBlock()
			b.edge(head, bodyB, s.Cond, false)
			b.edge(head, after, s.Cond, true)
		} else {
			bodyB = b.newBlock()
			b.edge(head, bodyB, nil, false)
		}
		post := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, continueTo: post, brk: after})
		bodyOut := b.stmtList(bodyB, s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyOut, post, nil, false)
		if s.Post != nil {
			b.stmtInto(post, s.Post)
		}
		b.edge(post, head, nil, false)
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(cur, head, nil, false)
		// The per-iteration key/value binding runs at the head; the
		// wrapper keeps the loop body out of the node list so clients
		// never walk body statements twice.
		b.add(head, &RangeHeader{Range: s})
		after := b.newBlock()
		bodyB := b.newBlock()
		// The loop may run zero times: head branches both ways.
		b.edge(head, bodyB, nil, false)
		b.edge(head, after, nil, false)
		b.loops = append(b.loops, loopFrame{label: label, continueTo: head, brk: after})
		bodyOut := b.stmtList(bodyB, s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyOut, head, nil, false)
		return after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		if s.Tag != nil {
			b.add(cur, s.Tag)
		}
		return b.cases(cur, label, s.Body, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		b.add(cur, s.Assign)
		return b.cases(cur, label, s.Body, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, brk: after})
		anyBody := false
		for _, clause := range s.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			anyBody = true
			caseB := b.newBlock()
			b.edge(cur, caseB, nil, false)
			if comm.Comm != nil {
				caseB = b.stmt(caseB, comm.Comm)
			}
			out := b.stmtList(caseB, comm.Body)
			b.edge(out, after, nil, false)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if !anyBody {
			// Empty select blocks forever; nothing reaches after.
			return nil
		}
		return after

	case *ast.ReturnStmt:
		b.add(cur, s)
		b.edge(cur, b.g.Exit, nil, false)
		return nil

	case *ast.BranchStmt:
		b.add(cur, s)
		switch s.Tok {
		case token.BREAK:
			if f := b.frame(s.Label, false); f != nil {
				b.edge(cur, f.brk, nil, false)
			}
			return nil
		case token.CONTINUE:
			if f := b.frame(s.Label, true); f != nil {
				b.edge(cur, f.continueTo, nil, false)
			}
			return nil
		case token.GOTO:
			// Over-approximation: goto jumps somewhere we do not model;
			// route it to Exit so no fall-through path is invented.
			b.edge(cur, b.g.Exit, nil, false)
			return nil
		case token.FALLTHROUGH:
			// Handled by the cases builder: fall out of the block.
			return cur
		}
		return cur

	case *ast.ExprStmt:
		b.add(cur, s)
		if isPanicCall(s.X) {
			b.edge(cur, b.g.Exit, nil, false)
			return nil
		}
		return cur

	default:
		// Assignments, declarations, sends, go and defer statements,
		// inc/dec, empty statements: straight-line.
		b.add(cur, s)
		return cur
	}
}

// stmtInto appends a simple statement (a for-post) into blk.
func (b *builder) stmtInto(blk *Block, s ast.Stmt) {
	b.add(blk, s)
}

// cases wires a switch-shaped statement: every clause is entered from
// the dispatch block (conditions are not tracked per-case; the tag
// expression already sits in the dispatch block), bodies exit to a
// common after block, fallthrough falls into the next body.
func (b *builder) cases(cur *Block, label string, body *ast.BlockStmt, bodyOf func(*ast.CaseClause) []ast.Stmt) *Block {
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after})
	hasDefault := false
	var caseBlocks []*Block
	var caseOuts []*Block
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseB := b.newBlock()
		b.edge(cur, caseB, nil, false)
		for _, e := range cc.List {
			b.add(caseB, e)
		}
		caseBlocks = append(caseBlocks, caseB)
		out := b.stmtList(caseB, bodyOf(cc))
		caseOuts = append(caseOuts, out)
	}
	for i, out := range caseOuts {
		if out == nil {
			continue
		}
		// A trailing fallthrough statement transfers into the next case
		// body; otherwise the body exits the switch.
		if endsInFallthrough(body.List, i) && i+1 < len(caseBlocks) {
			b.edge(out, caseBlocks[i+1], nil, false)
		} else {
			b.edge(out, after, nil, false)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault {
		// No default: the dispatch may match nothing and fall through.
		b.edge(cur, after, nil, false)
	}
	return after
}

// endsInFallthrough reports whether the i-th CaseClause of list ends in
// a fallthrough statement.
func endsInFallthrough(list []ast.Stmt, i int) bool {
	seen := -1
	for _, clause := range list {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		seen++
		if seen != i {
			continue
		}
		if len(cc.Body) == 0 {
			return false
		}
		br, ok := cc.Body[len(cc.Body)-1].(*ast.BranchStmt)
		return ok && br.Tok == token.FALLTHROUGH
	}
	return false
}

// takeLabel consumes the pending statement label.
func (b *builder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

// frame resolves a break/continue target. needLoop excludes
// switch/select frames (continue only binds to loops).
func (b *builder) frame(label *ast.Ident, needLoop bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if needLoop && f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// isPanicCall reports whether e is a direct call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// prune drops blocks unreachable from Entry (empty artifacts of
// returns and breaks) and renumbers the survivors in reverse postorder
// from Entry with Exit forced last. In RPO every forward edge of a
// reducible graph runs low index -> high index, so a higher-numbered
// predecessor identifies a genuine back edge — what Block.LoopHead and
// the dataflow worklist's widening heuristic rely on. Exit is always
// kept.
func (b *builder) prune() {
	g := b.g
	reach := make(map[*Block]bool, len(g.Blocks))
	var postorder []*Block
	var visit func(*Block)
	visit = func(blk *Block) {
		if reach[blk] {
			return
		}
		reach[blk] = true
		for _, e := range blk.Succs {
			visit(e.To)
		}
		if blk != g.Exit {
			postorder = append(postorder, blk)
		}
	}
	visit(g.Entry)
	reach[g.Exit] = true
	order := make([]*Block, 0, len(postorder)+1)
	for i := len(postorder) - 1; i >= 0; i-- {
		order = append(order, postorder[i])
	}
	order = append(order, g.Exit)
	for i, blk := range order {
		var preds []*Edge
		for _, e := range blk.Preds {
			if reach[e.From] {
				preds = append(preds, e)
			}
		}
		blk.Preds = preds
		blk.Index = i
	}
	g.Blocks = order
}

// LoopHead reports whether blk has a back edge: a predecessor that
// appears later in the block ordering. Dataflow clients widen at loop
// heads to guarantee termination.
func (blk *Block) LoopHead() bool {
	for _, e := range blk.Preds {
		if e.From.Index >= blk.Index {
			return true
		}
	}
	return false
}

// String renders the graph for debugging and tests.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		tag := ""
		if blk == g.Entry {
			tag = " (entry)"
		}
		if blk == g.Exit {
			tag = " (exit)"
		}
		fmt.Fprintf(&sb, "b%d%s: %d node(s) ->", blk.Index, tag, len(blk.Nodes))
		for _, e := range blk.Succs {
			if e.Cond != nil {
				neg := ""
				if e.Negated {
					neg = "!"
				}
				fmt.Fprintf(&sb, " %scond:b%d", neg, e.To.Index)
			} else {
				fmt.Fprintf(&sb, " b%d", e.To.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
