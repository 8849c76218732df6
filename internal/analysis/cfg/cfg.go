// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward/backward dataflow problems on
// them. It is the flow framework of treeschedlint's flow-sensitive
// analyzer, poollife: the graph builder and the fixpoint solver are
// tested here on their own (cfg_test.go), apart from the pool-lifecycle
// lattice that runs on them.
//
// The graph is statement-level: each basic block holds the AST nodes
// (statements, plus condition/tag expressions) that execute when the
// block runs, in evaluation order. Branch conditions are appended to
// the block that evaluates them, so transfer functions observe uses
// inside conditions without special cases.
//
// Virtual blocks: every function gets an Entry block, an Exit block
// (reached by falling off the end and by every return), and a Panic
// block (reached by explicit panic(...) calls). Analyzers that only
// care about orderly termination inspect Exit's predecessors;
// analyzers that treat panicking paths as exits too can union in
// Panic's.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the block's position in Graph.Blocks (dense, stable).
	Index int
	// Nodes are the AST nodes evaluated in this block, in order.
	// Statements appear as themselves; if/for/switch conditions and
	// switch tags appear as bare expressions in the block that
	// evaluates them.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
	// kind is a debugging label ("entry", "exit", "panic", "if.then",
	// "for.head", ...).
	kind string
}

// Kind returns the block's debugging label.
func (b *Block) Kind() string { return b.kind }

// Graph is the control-flow graph of one function body.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Panic collects explicit panic(...) exits. It has no successors
	// and is distinct from Exit so a resource analyzer can decide
	// whether dying counts as leaking.
	Panic *Block
	// Defers lists the deferred calls of the function in source
	// order. Deferred calls run at every exit; they are not threaded
	// into the block structure (that would create spurious edges) but
	// exposed here for analyzers to fold into their exit handling.
	Defers []*ast.DeferStmt

	inCycle []bool // lazily computed by InCycle
}

// InCycle reports whether b lies on a control-flow cycle (is part of
// a strongly connected component of size > 1, or has a self edge).
// It tells a function's once-per-call prologue from its per-iteration
// interior; cfg_test.go uses it as the oracle that loop lowering
// produced a back edge.
func (g *Graph) InCycle(b *Block) bool {
	if g.inCycle == nil {
		g.computeCycles()
	}
	return g.inCycle[b.Index]
}

// computeCycles runs Tarjan's SCC algorithm iteratively and marks the
// blocks belonging to nontrivial SCCs (or carrying self edges).
func (g *Graph) computeCycles() {
	n := len(g.Blocks)
	g.inCycle = make([]bool, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	type frame struct {
		v, succ int
	}
	var frames []frame
	for root := range g.Blocks {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.succ < len(g.Blocks[v].Succs) {
				w := g.Blocks[v].Succs[f.succ].Index
				f.succ++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				// v roots an SCC; pop it.
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					for _, w := range comp {
						g.inCycle[w] = true
					}
				} else {
					// Single block: cyclic iff it has a self edge.
					for _, s := range g.Blocks[comp[0]].Succs {
						if s.Index == comp[0] {
							g.inCycle[comp[0]] = true
						}
					}
				}
			}
		}
	}
}

// builder carries the state of one graph construction.
type builder struct {
	g *Graph
	// cur is the block new nodes are appended to; nil after a
	// terminating statement (return/branch/goto) until a new block
	// starts (unreachable trailing code gets a detached block).
	cur *Block
	// loop targets for break/continue, innermost last.
	breaks    []targets
	continues []targets
	// labels maps label names to their targets for goto and labeled
	// break/continue. gotos seen before their label are patched at
	// the end.
	labels       map[string]*Block
	pendingGotos map[string][]*Block
	// curLabel is the name of the LabeledStmt currently being
	// lowered, consumed by the next loop/switch/select statement so
	// `break L` / `continue L` resolve to it.
	curLabel string
}

type targets struct {
	label string
	block *Block
}

// New builds the control-flow graph of one function body. body may be
// the Body of an *ast.FuncDecl or *ast.FuncLit; a nil body (extern
// declaration) yields a graph whose Entry falls straight to Exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{
		g:            g,
		labels:       map[string]*Block{},
		pendingGotos: map[string][]*Block{},
	}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	g.Panic = b.newBlock("panic")
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(g.Exit) // fall off the end
	// Unresolved gotos (malformed code): send them to Exit so the
	// graph stays connected.
	for _, srcs := range b.pendingGotos {
		for _, src := range srcs {
			addEdge(src, g.Exit)
		}
	}
	return g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target. A nil current
// block (dead code) is left nil.
func (b *builder) jump(target *Block) {
	if b.cur == nil {
		return
	}
	addEdge(b.cur, target)
	b.cur = nil
}

// start makes blk current, beginning a new straight-line run.
func (b *builder) start(blk *Block) {
	b.cur = blk
}

// add appends a node to the current block, reviving dead code into a
// detached block so analyzers still see its nodes.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		then := b.newBlock("if.then")
		join := b.newBlock("if.join")
		b.jump(then)
		b.start(then)
		b.stmt(s.Body)
		b.jump(join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			addEdge(head, els)
			b.start(els)
			b.stmt(s.Else)
			b.jump(join)
		} else {
			addEdge(head, join)
		}
		b.start(join)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.start(head)
		if s.Cond != nil {
			b.add(s.Cond)
			addEdge(head, after)
		}
		addEdge(head, body)
		b.pushLoop(label, after, post)
		b.start(body)
		b.stmt(s.Body)
		b.popLoop()
		b.jump(post)
		if s.Post != nil {
			b.start(post)
			b.add(s.Post)
			b.jump(head)
		}
		b.start(after)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.add(s.X)
		b.jump(head)
		b.start(head)
		if s.Key != nil || s.Value != nil {
			// The per-iteration bind executes in the head.
			head.Nodes = append(head.Nodes, s)
		}
		addEdge(head, body)
		addEdge(head, after)
		b.pushLoop(label, after, head)
		b.start(body)
		b.stmt(s.Body)
		b.popLoop()
		b.jump(head)
		b.start(after)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body, label, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body, label, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.newBlock("select.head")
			b.start(head)
		}
		join := b.newBlock("select.join")
		b.breaks = append(b.breaks, targets{label, join})
		anyClause := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			anyClause = true
			blk := b.newBlock("select.case")
			addEdge(head, blk)
			b.start(blk)
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(join)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if !anyClause {
			// select{} blocks forever: no successor.
			b.cur = head
			b.jump(b.g.Exit)
		}
		b.cur = nil
		b.start(join)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.add(s)
			b.jump(b.findTarget(b.breaks, s.Label))
		case token.CONTINUE:
			b.add(s)
			b.jump(b.findTarget(b.continues, s.Label))
		case token.GOTO:
			b.add(s)
			name := s.Label.Name
			if t, ok := b.labels[name]; ok {
				b.jump(t)
			} else {
				src := b.cur
				b.cur = nil
				if src != nil {
					b.pendingGotos[name] = append(b.pendingGotos[name], src)
				}
			}
		case token.FALLTHROUGH:
			// Handled structurally by caseClauses; here it only ends
			// the block (edge added by the clause walker).
			b.add(s)
		}

	case *ast.LabeledStmt:
		blk := b.newBlock("label." + s.Label.Name)
		b.labels[s.Label.Name] = blk
		for _, src := range b.pendingGotos[s.Label.Name] {
			addEdge(src, blk)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.jump(blk)
		b.start(blk)
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Panic)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, Go, IncDec, Send, ... : straight-line.
		b.add(s)
	}
}

// caseClauses lowers a (type)switch body: head branches to every
// clause (and past the switch when there is no default); fallthrough
// chains clause bodies.
func (b *builder) caseClauses(body *ast.BlockStmt, label string, allowFallthrough bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
		b.start(head)
	}
	join := b.newBlock("switch.join")
	b.breaks = append(b.breaks, targets{label, join})

	type clause struct {
		cc  *ast.CaseClause
		blk *Block
	}
	var clauses []clause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock("switch.case")
		addEdge(head, blk)
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, clause{cc, blk})
	}
	if !hasDefault {
		addEdge(head, join)
	}
	for i, c := range clauses {
		b.start(c.blk)
		for _, e := range c.cc.List {
			b.add(e)
		}
		fallsThrough := false
		if allowFallthrough && len(c.cc.Body) > 0 {
			if br, ok := c.cc.Body[len(c.cc.Body)-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(c.cc.Body)
		if fallsThrough && i+1 < len(clauses) {
			b.jump(clauses[i+1].blk)
		} else {
			b.jump(join)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = nil
	b.start(join)
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, targets{label, brk})
	b.continues = append(b.continues, targets{label, cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// findTarget resolves a break/continue, honouring an optional label.
// Unresolvable targets (malformed code) land on Exit.
func (b *builder) findTarget(stack []targets, label *ast.Ident) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == nil || stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return b.g.Exit
}

// takeLabel consumes the label of the LabeledStmt being lowered (set
// just before the wrapped loop/switch/select is entered), so labeled
// break/continue resolve through findTarget.
func (b *builder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
