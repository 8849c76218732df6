package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses one function body and returns its graph plus the
// fileset for positions.
func buildFunc(t *testing.T, body string) (*Graph, *token.FileSet) {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return New(fn.Body), fset
}

// stmtsOf flattens the graph's nodes into rendered source fragments
// so tests can assert over what ended up where.
func stmtsOf(b *Block) []string {
	var out []string
	for _, n := range b.Nodes {
		out = append(out, nodeString(n))
	}
	return out
}

func nodeString(n ast.Node) string {
	switch n := n.(type) {
	case *ast.ExprStmt:
		return nodeString(n.X)
	case *ast.CallExpr:
		return nodeString(n.Fun) + "()"
	case *ast.Ident:
		return n.Name
	case *ast.AssignStmt:
		return nodeString(n.Lhs[0]) + "="
	case *ast.ReturnStmt:
		return "return"
	case *ast.BinaryExpr:
		return nodeString(n.X) + n.Op.String() + nodeString(n.Y)
	case *ast.BasicLit:
		return n.Value
	default:
		return fmt.Sprintf("%T", n)
	}
}

// findBlock returns the first block containing a node rendered as s.
func findBlock(t *testing.T, g *Graph, s string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, frag := range stmtsOf(b) {
			if frag == s {
				return b
			}
		}
	}
	t.Fatalf("no block contains %q", s)
	return nil
}

// reaches reports whether to is reachable from from along Succs.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestIfElseJoins(t *testing.T) {
	g, _ := buildFunc(t, `
		a()
		if cond() {
			b()
		} else {
			c()
		}
		d()
	`)
	bb, cb, db := findBlock(t, g, "b()"), findBlock(t, g, "c()"), findBlock(t, g, "d()")
	if reaches(bb, cb) || reaches(cb, bb) {
		t.Fatalf("then and else branches must not reach each other")
	}
	if !reaches(bb, db) || !reaches(cb, db) {
		t.Fatalf("both branches must reach the join")
	}
	if !reaches(g.Entry, db) || !reaches(db, g.Exit) {
		t.Fatalf("join must be on the entry-exit path")
	}
}

func TestIfWithoutElseSkips(t *testing.T) {
	g, _ := buildFunc(t, `
		if cond() {
			b()
		}
		d()
	`)
	head := findBlock(t, g, "cond()")
	db := findBlock(t, g, "d()")
	direct := false
	for _, s := range head.Succs {
		if s == db {
			direct = true
		}
	}
	if !direct {
		t.Fatalf("if-without-else must have a direct edge head->join")
	}
}

func TestForLoopCycleAndExit(t *testing.T) {
	g, _ := buildFunc(t, `
		pre()
		for i := 0; i < n; i++ {
			body()
		}
		post()
	`)
	pre, body, post := findBlock(t, g, "pre()"), findBlock(t, g, "body()"), findBlock(t, g, "post()")
	if g.InCycle(pre) || g.InCycle(post) {
		t.Fatalf("code outside the loop must not be InCycle")
	}
	if !g.InCycle(body) {
		t.Fatalf("loop body must be InCycle")
	}
	if !reaches(body, post) || !reaches(body, body) {
		t.Fatalf("loop body must reach both itself and the code after the loop")
	}
}

func TestRangeLoopCycle(t *testing.T) {
	g, _ := buildFunc(t, `
		for range xs {
			body()
		}
		post()
	`)
	body := findBlock(t, g, "body()")
	if !g.InCycle(body) {
		t.Fatalf("range body must be InCycle")
	}
	if !reaches(body, findBlock(t, g, "post()")) {
		t.Fatalf("range body must reach the code after the loop")
	}
}

func TestBreakLeavesLoop(t *testing.T) {
	g, _ := buildFunc(t, `
		for {
			if cond() {
				break
			}
			body()
		}
		post()
	`)
	post := findBlock(t, g, "post()")
	if !reaches(g.Entry, post) {
		t.Fatalf("break must connect the loop to the code after it")
	}
	if !g.InCycle(findBlock(t, g, "body()")) {
		t.Fatalf("body of for{} must be InCycle")
	}
}

func TestLabeledBreak(t *testing.T) {
	g, _ := buildFunc(t, `
	outer:
		for {
			for {
				if cond() {
					break outer
				}
				inner()
			}
		}
		post()
	`)
	if !reaches(g.Entry, findBlock(t, g, "post()")) {
		t.Fatalf("labeled break must reach past the outer loop")
	}
	if !g.InCycle(findBlock(t, g, "inner()")) {
		t.Fatalf("inner body must be InCycle")
	}
}

func TestContinueEdges(t *testing.T) {
	g, _ := buildFunc(t, `
		for i := 0; i < n; i++ {
			if cond() {
				continue
			}
			body()
		}
	`)
	body := findBlock(t, g, "body()")
	if !g.InCycle(body) {
		t.Fatalf("body must be InCycle")
	}
	// The continue path must also be cyclic: cond-block is in the loop.
	if !g.InCycle(findBlock(t, g, "cond()")) {
		t.Fatalf("condition inside loop must be InCycle")
	}
}

func TestReturnEdgesToExit(t *testing.T) {
	g, _ := buildFunc(t, `
		if cond() {
			return
		}
		after()
	`)
	ret := findBlock(t, g, "return")
	toExit := false
	for _, s := range ret.Succs {
		if s == g.Exit {
			toExit = true
		}
	}
	if !toExit {
		t.Fatalf("return block must edge to Exit")
	}
	if reaches(ret, findBlock(t, g, "after()")) {
		t.Fatalf("return must not fall through")
	}
}

func TestPanicEdgesToPanicBlock(t *testing.T) {
	g, _ := buildFunc(t, `
		if cond() {
			panic("boom")
		}
		after()
	`)
	pb := findBlock(t, g, "panic()")
	toPanic := false
	for _, s := range pb.Succs {
		if s == g.Panic {
			toPanic = true
		}
	}
	if !toPanic {
		t.Fatalf("panic call must edge to the Panic block")
	}
	if reaches(pb, g.Exit) {
		t.Fatalf("panic must not reach Exit")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g, _ := buildFunc(t, `
		switch x {
		case 1:
			a()
			fallthrough
		case 2:
			b()
		case 3:
			c()
		}
		post()
	`)
	ab, bb, cb := findBlock(t, g, "a()"), findBlock(t, g, "b()"), findBlock(t, g, "c()")
	if !reaches(ab, bb) {
		t.Fatalf("fallthrough must chain case 1 into case 2")
	}
	if reaches(ab, cb) || reaches(bb, cb) {
		t.Fatalf("non-fallthrough cases must not chain")
	}
	if !reaches(bb, findBlock(t, g, "post()")) {
		t.Fatalf("case bodies must reach the join")
	}
}

func TestSwitchWithoutDefaultHasSkipEdge(t *testing.T) {
	g, _ := buildFunc(t, `
		switch x {
		case 1:
			a()
		}
		post()
	`)
	head := findBlock(t, g, "x")
	post := findBlock(t, g, "post()")
	// With no default, head must reach post without going through a().
	direct := false
	for _, s := range head.Succs {
		if reaches(s, post) && s != findBlock(t, g, "a()") && !reaches(s, findBlock(t, g, "a()")) {
			direct = true
		}
	}
	if !direct {
		t.Fatalf("switch without default needs a skip edge")
	}
}

func TestSelectClausesBranch(t *testing.T) {
	g, _ := buildFunc(t, `
		select {
		case <-ch:
			a()
		case v := <-other:
			b(v)
		}
		post()
	`)
	ab, bb := findBlock(t, g, "a()"), findBlock(t, g, "b()")
	if reaches(ab, bb) || reaches(bb, ab) {
		t.Fatalf("select clauses must be exclusive")
	}
	post := findBlock(t, g, "post()")
	if !reaches(ab, post) || !reaches(bb, post) {
		t.Fatalf("select clauses must rejoin")
	}
}

func TestDefersCollected(t *testing.T) {
	g, _ := buildFunc(t, `
		defer top()
		for {
			defer inLoop()
			if cond() {
				break
			}
		}
	`)
	if len(g.Defers) != 2 {
		t.Fatalf("want 2 defers, got %d", len(g.Defers))
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	g, _ := buildFunc(t, `
		a()
	top:
		b()
		if cond() {
			goto top
		}
		if other() {
			goto done
		}
		c()
	done:
		d()
	`)
	bb := findBlock(t, g, "b()")
	if !g.InCycle(bb) {
		t.Fatalf("backward goto must form a cycle")
	}
	if !reaches(findBlock(t, g, "other()"), findBlock(t, g, "d()")) {
		t.Fatalf("forward goto must reach its label")
	}
}

// TestSolveForward runs a tiny forward "definitely called stop()"
// analysis: state is a bool, true iff stop() was called on every path.
func TestSolveForward(t *testing.T) {
	g, _ := buildFunc(t, `
		if cond() {
			stop()
		} else {
			other()
		}
		use()
	`)
	isCall := func(n ast.Node, name string) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
	}
	in := Solve(g, Problem[bool]{
		Dir:      Forward,
		Boundary: false,
		Bottom:   true, // identity for AND-merge
		Transfer: func(b *Block, st bool) bool {
			for _, n := range b.Nodes {
				if isCall(n, "stop") {
					st = true
				}
			}
			return st
		},
		Merge: func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
	})
	if in[findBlock(t, g, "use()")] {
		t.Fatalf("stop() only on one branch must not be definite at the join")
	}

	g2, _ := buildFunc(t, `
		if cond() {
			stop()
		} else {
			stop()
		}
		use()
	`)
	in2 := Solve(g2, Problem[bool]{
		Dir:      Forward,
		Boundary: false,
		Bottom:   true,
		Transfer: func(b *Block, st bool) bool {
			for _, n := range b.Nodes {
				if isCall(n, "stop") {
					st = true
				}
			}
			return st
		},
		Merge: func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
	})
	if !in2[findBlock(t, g2, "use()")] {
		t.Fatalf("stop() on both branches must be definite at the join")
	}
}

// TestSolveLoopFixpoint checks the solver iterates loops to a stable
// answer: "x may have been freed" becomes true in the loop and stays
// true after it.
func TestSolveLoopFixpoint(t *testing.T) {
	g, _ := buildFunc(t, `
		for i := 0; i < n; i++ {
			if cond() {
				free()
			}
			use()
		}
		after()
	`)
	in := Solve(g, Problem[bool]{
		Dir:      Forward,
		Boundary: false,
		Bottom:   false, // identity for OR-merge
		Transfer: func(b *Block, st bool) bool {
			for _, n := range b.Nodes {
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "free" {
							st = true
						}
					}
				}
			}
			return st
		},
		Merge: func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
	})
	if !in[findBlock(t, g, "use()")] {
		t.Fatalf("free() earlier in the loop must flow around the back edge to use()")
	}
	if !in[findBlock(t, g, "after()")] {
		t.Fatalf("may-freed must survive loop exit")
	}
}

// TestSolveBackward runs a liveness-flavoured backward problem: a
// block "needs cleanup" if some path from it calls use() before
// stop().
func TestSolveBackward(t *testing.T) {
	g, _ := buildFunc(t, `
		a()
		if cond() {
			use()
		}
		stop()
	`)
	in := Solve(g, Problem[bool]{
		Dir:      Backward,
		Boundary: false,
		Bottom:   false,
		Transfer: func(b *Block, st bool) bool {
			// Walk nodes in reverse for a backward problem.
			for i := len(b.Nodes) - 1; i >= 0; i-- {
				if es, ok := b.Nodes[i].(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok {
							switch id.Name {
							case "stop":
								st = false
							case "use":
								st = true
							}
						}
					}
				}
			}
			return st
		},
		Merge: func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
	})
	if !in[findBlock(t, g, "a()")] {
		t.Fatalf("use() on a forward path must be visible backward at a()")
	}
}

func TestEveryStatementLandsInSomeBlock(t *testing.T) {
	g, _ := buildFunc(t, `
		a()
		for {
			switch x {
			case 1:
				b()
			default:
				c()
			}
			select {
			case <-ch:
				d()
			}
			if cond() {
				continue
			}
			break
		}
		e()
	`)
	for _, want := range []string{"a()", "b()", "c()", "d()", "e()"} {
		findBlock(t, g, want)
	}
	// And all non-virtual statement blocks are reachable from Entry.
	for _, want := range []string{"a()", "b()", "c()", "d()", "e()"} {
		if !reaches(g.Entry, findBlock(t, g, want)) {
			t.Fatalf("%s unreachable from entry", want)
		}
	}
}

func TestKindLabelsAreStable(t *testing.T) {
	g, _ := buildFunc(t, `x()`)
	if g.Entry.Kind() != "entry" || g.Exit.Kind() != "exit" || g.Panic.Kind() != "panic" {
		t.Fatalf("virtual block kinds changed: %s/%s/%s",
			g.Entry.Kind(), g.Exit.Kind(), g.Panic.Kind())
	}
	var kinds []string
	for _, b := range g.Blocks {
		kinds = append(kinds, b.Kind())
	}
	if !strings.Contains(strings.Join(kinds, ","), "entry") {
		t.Fatalf("entry missing from block list")
	}
}
