package lint

// cfg.go builds intraprocedural control-flow graphs over go/ast
// function bodies. The graph is deliberately lint-grade rather than
// compiler-grade: basic blocks hold the statements and condition
// expressions in evaluation order, edges follow every syntactic path
// (if/for/range/switch/select/goto/labeled break and continue), and
// defers are modelled with a single synthetic exit-preamble block that
// every function exit flows through, holding the deferred calls in
// LIFO order. That preamble places a deferred call where it runs:
//
//	defer f.Sync()
//	os.Rename(tmp, name)
//
// the Sync's effect applies on every exit path, but not before — so
// the rename is still seen as publishing unsynced data.
//
// Approximations, chosen to avoid false positives rather than to be
// execution-exact:
//
//   - conditionally-registered defers are assumed to run (a defer is
//     always routed through the preamble);
//   - a deferred func(){...}() literal is inlined as straight-line code
//     in the preamble (its internal control flow is not expanded);
//   - panic(...), runtime.Goexit and *.Exit/*.Fatal* calls terminate
//     the block with an edge to the preamble, as a return does;
//   - function literals are not expanded into the enclosing graph —
//     analyzers build a separate CFG per literal via forEachFuncBody.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: nodes that execute consecutively, in
// evaluation order. Nodes are statements and the condition/tag
// expressions of the control statement that ends the block; analyzers
// walk each node with ast.Inspect but must not descend into
// *ast.FuncLit (a different function) or *ast.DeferStmt (a
// registration — the deferred call reappears in the exit preamble).
type Block struct {
	Index int
	// Desc names the block's syntactic role ("entry", "if.then",
	// "for.head", "defers", ...) for dumps and golden tests.
	Desc  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block // creation order; Blocks[i].Index == i
	Entry  *Block
	// Defers is the synthetic exit preamble: every return, panic and
	// fall-off-the-end edge leads here, and the deferred calls run here
	// in LIFO order. It is always present (empty when the function has
	// no defers) so analyses treat all exits uniformly.
	Defers *Block
	Exit   *Block
}

// String renders the graph one block per line:
//
//	b0 entry [2] -> b3
//
// where [n] is the node count (omitted when zero).
func (g *CFG) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "b%d %s", blk.Index, blk.Desc)
		if len(blk.Nodes) > 0 {
			fmt.Fprintf(&b, " [%d]", len(blk.Nodes))
		}
		if len(blk.Succs) > 0 {
			b.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&b, " b%d", s.Index)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BuildCFG constructs the control-flow graph of body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		labels: map[string]*Block{},
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Defers = b.newBlock("defers")
	b.g.Exit = b.newBlock("exit")
	b.edge(b.g.Defers, b.g.Exit)
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Defers)
	}
	// Deferred calls run last-registered-first.
	for i := len(b.deferred) - 1; i >= 0; i-- {
		b.g.Defers.Nodes = append(b.g.Defers.Nodes, b.deferred[i])
	}
	return b.g
}

// scope is one enclosing breakable/continuable statement.
type scope struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch and select scopes
}

type cfgBuilder struct {
	g   *CFG
	cur *Block // nil after a terminator: following code is unreachable

	scopes   []scope
	labels   map[string]*Block // label name -> target block (goto, labeled stmt)
	fallTo   []*Block          // fallthrough target stack, one per switch clause
	deferred []ast.Node        // preamble nodes in registration order
}

func (b *cfgBuilder) newBlock(desc string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Desc: desc}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ensure guarantees a current block, opening an unreachable one for
// code that follows a terminator.
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	b.ensure().Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// findBreak locates the break target: the innermost scope, or the one
// carrying the label.
func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		if label == "" || b.scopes[i].label == label {
			return b.scopes[i].breakTo
		}
	}
	return nil
}

func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if sc.continueTo != nil && (label == "" || sc.label == label) {
			return sc.continueTo
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, lb)
		}
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		b.edge(cond, then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
			b.edge(cond, els)
		}
		b.cur = then
		b.stmt(s.Body, "")
		thenEnd := b.cur
		var elseEnd *Block
		if els != nil {
			b.cur = els
			b.stmt(s.Else, "")
			elseEnd = b.cur
		}
		after := b.newBlock("if.after")
		if els == nil {
			b.edge(cond, after)
		}
		if thenEnd != nil {
			b.edge(thenEnd, after)
		}
		if elseEnd != nil {
			b.edge(elseEnd, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		pre := b.ensure()
		head := b.newBlock("for.head")
		b.edge(pre, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock("for.body")
		b.edge(head, body)
		backTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			backTo = post
		}
		after := b.newBlock("for.after")
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.scopes = append(b.scopes, scope{label: label, breakTo: after, continueTo: backTo})
		b.cur = body
		b.stmt(s.Body, "")
		if b.cur != nil {
			b.edge(b.cur, backTo)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.RangeStmt:
		b.add(s.X)
		pre := b.ensure()
		head := b.newBlock("range.head")
		b.edge(pre, head)
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.edge(head, body)
		b.edge(head, after)
		b.scopes = append(b.scopes, scope{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body, "")
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, false)

	case *ast.SelectStmt:
		head := b.ensure()
		after := b.newBlock("select.after")
		b.scopes = append(b.scopes, scope{label: label, breakTo: after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			desc := "select.case"
			if cc.Comm == nil {
				desc = "select.default"
			}
			blk := b.newBlock(desc)
			b.edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		// select{} blocks forever: after stays unreachable.
		b.cur = after

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		b.ensure()
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(name); t != nil {
				b.edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.findContinue(name); t != nil {
				b.edge(b.cur, t)
			}
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(name))
		case token.FALLTHROUGH:
			if n := len(b.fallTo); n > 0 && b.fallTo[n-1] != nil {
				b.edge(b.cur, b.fallTo[n-1])
			}
		}
		b.cur = nil

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Defers)
		b.cur = nil

	case *ast.DeferStmt:
		b.add(s) // registration marker; effect excluded by analyzers
		// A deferred func(){...}() literal runs as straight-line code in
		// the preamble; other deferred calls appear as the call itself.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && len(lit.Type.Params.List) == 0 {
			b.deferred = append(b.deferred, lit.Body)
		} else {
			b.deferred = append(b.deferred, s.Call)
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminalCall(call) {
			b.edge(b.cur, b.g.Defers)
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		b.add(s)
	}
}

// switchClauses builds the shared clause structure of switch and type
// switch. allowFall enables fallthrough edges (expression switch only).
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, allowFall bool) {
	head := b.ensure()
	after := b.newBlock("switch.after")
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		desc := "case"
		if cc.List == nil {
			desc = "default"
			hasDefault = true
		}
		bodies[i] = b.newBlock(desc)
		b.edge(head, bodies[i])
		for _, e := range cc.List {
			bodies[i].Nodes = append(bodies[i].Nodes, e)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.scopes = append(b.scopes, scope{label: label, breakTo: after})
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		var fall *Block
		if allowFall && i+1 < len(bodies) {
			fall = bodies[i+1]
		}
		b.fallTo = append(b.fallTo, fall)
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		b.fallTo = b.fallTo[:len(b.fallTo)-1]
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = after
}

// isTerminalCall reports whether a call never returns for the purposes
// of this CFG: panic, runtime.Goexit, and the *.Exit / *.Fatal* family
// (os.Exit, log.Fatalf, t.Fatal, ...). All are routed through the
// defer preamble — exact for panic and Goexit, conservative for Exit.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		switch fn.Sel.Name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln", "FailNow":
			return true
		}
	}
	return false
}

// forEachFuncBody invokes fn for every function body in the file:
// declarations first, then every function literal (each literal is its
// own function with its own CFG). name is a human-readable identifier
// for diagnostics.
func forEachFuncBody(f *ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn(fd.Name.Name, fd.Body)
		outer := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn("a function literal in "+outer, lit.Body)
			}
			return true
		})
	}
}
