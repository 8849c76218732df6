// Package goroleak checks that goroutines started in the long-running
// packages (service, executor, multitree, obs — matched by package
// name, fixtures included) cannot block forever with no cancellation
// path.
// A leaked goroutine in those packages outlives its request or run and
// pins pool memory the steady-state alloc guards assume is recycled.
//
// Starting from each `go` statement, the analysis walks the spawned
// body — func literals, same-package functions and methods, and local
// closure bindings, transitively and memoized — and reports blocking
// operations with no way out:
//
//   - time.Sleep (nothing can interrupt it; use a timer select);
//   - sends on channels not provably buffered (a make(chan T, n>0)
//     visible in the same function);
//   - receives, unless from a struct{}-element channel (done-channel
//     and semaphore-release conventions), a time.Time-element channel
//     (timer/ticker wakeup), a ctx.Done() call, or a buffered make;
//   - range over a channel;
//   - select with no default, no cancellation case (ctx.Done() or a
//     struct{}-element receive) and no timer case.
//
// sync.WaitGroup.Wait is deliberately not tracked: the repo's Wait
// calls are paired with Add/Done bookkeeping the analysis cannot see,
// and flagging them would only breed suppressions. Channels stored in
// struct fields cannot be proven buffered; a justified entry in the
// root package's contractExceptions is the intended escape hatch.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the goroleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Run:  run,
}

// gated lists the package names whose goroutines are checked.
var gated = map[string]bool{
	"service":   true,
	"executor":  true,
	"multitree": true,
	"obs":       true,
}

type checker struct {
	pass  *analysis.Pass
	decls map[types.Object]*ast.FuncDecl
	// visited memoizes walked FuncDecls; each blocking site is
	// reported once however many goroutines reach it.
	visited  map[types.Object]bool
	reported map[token.Pos]bool
}

func run(pass *analysis.Pass) error {
	if !gated[pass.Pkg.Name()] {
		return nil
	}
	c := &checker{
		pass:     pass,
		decls:    map[types.Object]*ast.FuncDecl{},
		visited:  map[types.Object]bool{},
		reported: map[token.Pos]bool{},
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					c.decls[obj] = fn
				}
			}
		}
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			scope := newWalkScope(c, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					c.goStmt(g, scope)
				}
				return true
			})
		}
	}
	return nil
}

// walkScope carries what one function body contributes to resolving
// the goroutines it starts: provably-buffered channels and local
// closure bindings.
type walkScope struct {
	buffered map[types.Object]bool
	closures map[types.Object]*ast.FuncLit
}

// newWalkScope scans a body for make(chan T, n>0) assignments and
// `name := func(...){...}` bindings.
func newWalkScope(c *checker, body *ast.BlockStmt) *walkScope {
	s := &walkScope{
		buffered: map[types.Object]bool{},
		closures: map[types.Object]*ast.FuncLit{},
	}
	bind := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		rhs = ast.Unparen(rhs)
		if lit, ok := rhs.(*ast.FuncLit); ok {
			s.closures[obj] = lit
			return
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBufferedMake(c, call) {
			s.buffered[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return s
}

// isBufferedMake matches make(chan T, n) where n is not literally 0.
func isBufferedMake(c *checker, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) != 2 {
		return false
	}
	if _, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return false
	}
	t := c.pass.TypesInfo.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	if lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
		return false
	}
	return true
}

// goStmt resolves the spawned body and walks it.
func (c *checker) goStmt(g *ast.GoStmt, scope *walkScope) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		c.walkBody(fun.Body, scope)
	case *ast.Ident:
		c.resolveCall(fun, scope)
	case *ast.SelectorExpr:
		c.resolveCall(fun.Sel, scope)
	}
}

// resolveCall follows a called identifier into a same-package
// function declaration or a local closure binding.
func (c *checker) resolveCall(id *ast.Ident, scope *walkScope) {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() == c.pass.Pkg {
		c.walkDecl(obj)
		return
	}
	if lit, ok := scope.closures[obj]; ok {
		c.walkBody(lit.Body, scope)
	}
}

// walkDecl walks one same-package function once, with its own scope.
func (c *checker) walkDecl(obj types.Object) {
	if c.visited[obj] {
		return
	}
	c.visited[obj] = true
	decl, ok := c.decls[obj]
	if !ok {
		return
	}
	c.walkBody(decl.Body, newWalkScope(c, decl.Body))
}

// walkBody reports unguarded blocking operations in one body that
// runs on the spawned goroutine.
func (c *checker) walkBody(body *ast.BlockStmt, scope *walkScope) {
	inner := newWalkScope(c, body)
	for obj, lit := range scope.closures {
		if _, shadowed := inner.closures[obj]; !shadowed {
			inner.closures[obj] = lit
		}
	}
	for obj := range scope.buffered {
		inner.buffered[obj] = true
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested goroutine is its own root

		case *ast.FuncLit:
			return false // runs only if called; handled at the call

		case *ast.SelectStmt:
			if !c.selectHasExit(n) {
				c.report(n.Pos(), "goroutine select has no cancellation case, timer case or default")
			}
			// Case bodies run after a wakeup: walk them, skip the
			// comm operations themselves.
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				for _, s := range cc.Body {
					ast.Inspect(s, walk)
				}
			}
			return false

		case *ast.SendStmt:
			if !c.bufferedChan(n.Chan, inner) {
				c.report(n.Pos(), "goroutine blocks on channel send with no cancellation path")
			}
			return true

		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !c.recvExempt(n.X, inner) {
				c.report(n.Pos(), "goroutine blocks on channel receive with no cancellation path")
			}
			return true

		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					c.report(n.Pos(), "goroutine ranges over a channel with no cancellation path")
				}
			}
			return true

		case *ast.CallExpr:
			c.blockingCall(n, inner)
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// blockingCall handles calls found on the goroutine: time.Sleep,
// immediately-invoked literals, same-package functions, closures.
func (c *checker) blockingCall(call *ast.CallExpr, scope *walkScope) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		c.walkBody(fun.Body, scope)
	case *ast.Ident:
		c.resolveCall(fun, scope)
	case *ast.SelectorExpr:
		if fn, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
				c.report(call.Pos(), "goroutine blocks on time.Sleep; use a timer select with a cancellation channel")
				return
			}
		}
		c.resolveCall(fun.Sel, scope)
	}
}

// selectHasExit reports whether a select has a default case, a
// cancellation receive (ctx.Done() or a struct{}-element channel) or
// a timer receive (time.Time-element channel).
func (c *checker) selectHasExit(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default
		}
		var ch ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				ch = u.X
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if u, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					ch = u.X
				}
			}
		}
		if ch == nil {
			continue // send case: not an exit
		}
		if c.isDoneCall(ch) || c.elemIs(ch, isEmptyStruct) || c.elemIs(ch, isTimeTime) {
			return true
		}
	}
	return false
}

// recvExempt reports whether a bare receive cannot leak: done-channel
// or semaphore conventions (struct{} element), timer wakeups
// (time.Time element), ctx.Done(), or a locally-buffered channel.
func (c *checker) recvExempt(ch ast.Expr, scope *walkScope) bool {
	return c.isDoneCall(ch) ||
		c.elemIs(ch, isEmptyStruct) ||
		c.elemIs(ch, isTimeTime) ||
		c.bufferedChan(ch, scope)
}

// bufferedChan reports whether ch resolves to a variable assigned
// from a visibly-buffered make.
func (c *checker) bufferedChan(ch ast.Expr, scope *walkScope) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	return scope.buffered[obj]
}

// isDoneCall matches `<-x.Done()` (context convention).
func (c *checker) isDoneCall(ch ast.Expr) bool {
	call, ok := ast.Unparen(ch).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

// elemIs reports whether ch is a channel whose element type satisfies
// pred.
func (c *checker) elemIs(ch ast.Expr, pred func(types.Type) bool) bool {
	t := c.pass.TypesInfo.TypeOf(ch)
	if t == nil {
		return false
	}
	chT, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	return pred(chT.Elem())
}

func isEmptyStruct(t types.Type) bool {
	s, ok := t.Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}

func isTimeTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

func (c *checker) report(pos token.Pos, msg string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, "%s", msg)
}
