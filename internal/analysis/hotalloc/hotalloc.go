// Package hotalloc statically enforces the allocation-free hot paths
// the benchmarks guard dynamically (TestSteadyStateAllocsPerJob,
// bench_guard.sh): functions reachable from a declared hot boundary
// must not allocate per event.
//
// # Hot boundary
//
// Two kinds of root, matched by package name + function key (fixtures
// mirror production package names, exactly like poollife):
//
//   - event roots — the whole body runs once per scheduler event:
//     core.(*MemBooking).OnFinish/Select/BookedMemory,
//     core.(*MemBookingPool).Get/Put, the pqueue heap operations.
//     A `//perf:hot` doc-comment line adds an event root anywhere.
//   - stream roots — only the loop interior runs per event; the
//     prologue is per-call and may allocate: multitree.Run,
//     service.(*Server).schedule. Loop interior = CFG blocks on a
//     control-flow cycle (cfg.InCycle).
//
// Hotness propagates through same-package calls (including local
// closures) and, across package boundaries, through the exported
// `allocates` object fact: a hot caller of an allocating callee in
// another package is flagged at the call site. Interface-dispatch
// calls are not resolved (documented limitation — keep hot loops
// monomorphic or annotate). A `//perf:cold` doc-comment line excludes
// a function: it neither propagates hotness nor exports a fact; it is
// the audit marker for intentional cold-path construction
// (core.NewMemBooking, the fault-plan builders).
//
// # Detected allocations
//
// make, new, heap composite literals (&T{...}, map and slice
// literals), growing append (x = append(x, ...) and
// x = append(x[:0], ...) with textually identical destination and
// base are exempt — amortized reuse), capturing closures (unless
// passed to a no-escape callee: sort.Search, pqueue's Filter),
// interface boxing of non-pointer-shaped values, string
// concatenation, and calls into an allocating-stdlib denylist (fmt.*,
// errors.New, strconv/strings formatters, sort.Slice*).
//
// # Exemptions
//
// Three guard shapes make an allocation amortized or cold and exempt
// its whole region: capacity guards (`if cap(x) < n { ... }`), lazy
// initialization (`if x == nil { ... }` / the else of `!= nil`), and
// failure-path construction (the final error result of a return in a
// function whose last result is error). Anything else needs
// `//lint:ignore hotalloc <reason>`.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Allocates is the object fact exported for every function whose body
// may allocate per call (outside exempt regions). Why names the first
// allocation found, for diagnostics at cross-package call sites.
type Allocates struct {
	Why string
}

// AFact marks Allocates as a fact type.
func (*Allocates) AFact() {}

func init() { analysis.RegisterFactType(&Allocates{}) }

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "check that functions on the declared hot boundary do not allocate per event",
	Run:       run,
	FactTypes: []analysis.Fact{(*Allocates)(nil)},
}

type rootKind int

const (
	notRoot rootKind = iota
	eventRoot
	streamRoot
)

// roots is the declared hot boundary: package name → function key
// (analysis.ObjectKey form) → root kind.
var roots = map[string]map[string]rootKind{
	"core": {
		"MemBooking.OnFinish":     eventRoot,
		"MemBooking.Select":       eventRoot,
		"MemBooking.BookedMemory": eventRoot,
		"MemBookingPool.Get":      eventRoot,
		"MemBookingPool.Put":      eventRoot,
	},
	"pqueue": {
		"EventHeap.Push":     eventRoot,
		"EventHeap.PopBatch": eventRoot,
		"EventHeap.Min":      eventRoot,
		"EventHeap.Filter":   eventRoot,
		"RankHeap.Push":      eventRoot,
		"RankHeap.Pop":       eventRoot,
	},
	"multitree": {
		"Run": streamRoot,
	},
	"service": {
		"Server.schedule": streamRoot,
	},
}

// noEscape lists callees that call their function argument without
// retaining it, so a capturing closure passed to them stays on the
// stack: package name (or import path tail) → function key.
var noEscape = map[string]map[string]bool{
	"sort":   {"Search": true},
	"pqueue": {"EventHeap.Filter": true},
}

// allocStdlib is the denylist of always-allocating stdlib calls:
// package path → function name, "*" for the whole package.
var allocStdlib = map[string]map[string]bool{
	"fmt":     {"*": true},
	"errors":  {"New": true},
	"strconv": {"Itoa": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true, "Quote": true},
	"strings": {"Join": true, "Repeat": true, "Split": true, "Fields": true, "Replace": true, "ReplaceAll": true, "ToUpper": true, "ToLower": true},
	"sort":    {"Slice": true, "SliceStable": true},
}

// annotation is a //perf: doc directive on a function.
type annotation int

const (
	annNone annotation = iota
	annHot
	annCold
)

func parseAnnotation(doc *ast.CommentGroup) annotation {
	if doc == nil {
		return annNone
	}
	for _, c := range doc.List {
		switch strings.TrimSpace(c.Text) {
		case "//perf:hot":
			return annHot
		case "//perf:cold":
			return annCold
		}
	}
	return annNone
}

// site is one potential allocation.
type site struct {
	pos token.Pos
	why string
}

// calleeRef is one resolved call for hot propagation / fact lookup.
type calleeRef struct {
	pos   token.Pos
	obj   types.Object // called function or closure variable
	cross bool         // defined in another package
}

// blockFacts is what one CFG block contributes.
type blockFacts struct {
	sites   []site
	callees []calleeRef
	lits    []*ast.FuncLit
}

// fnScope is one analyzed body: a FuncDecl or a FuncLit.
type fnScope struct {
	obj    types.Object // nil for anonymous literals
	name   string       // for diagnostics
	body   *ast.BlockStmt
	ftype  *ast.FuncType
	ann    annotation
	root   rootKind
	graph  *cfg.Graph
	perB   map[*cfg.Block]*blockFacts
	exempt []posRange
	// hot marks the scope's body fully hot (event root, //perf:hot,
	// or reached from a hot region).
	hot bool
	// closures maps local variables to the literal assigned to them,
	// so name() calls propagate hotness into the literal.
	closures map[types.Object]*fnScope
}

type posRange struct{ lo, hi token.Pos }

func (r posRange) contains(p token.Pos) bool { return r.lo <= p && p < r.hi }

type checker struct {
	pass *analysis.Pass
	// scopes indexes every FuncDecl body by its object; lits holds
	// every FuncLit scope (keyed by the literal).
	scopes map[types.Object]*fnScope
	lits   map[*ast.FuncLit]*fnScope
	// allocates is the per-function summary driving fact export and
	// cross-function reasoning; keys are FuncDecl objects.
	allocates map[types.Object]string
	// enclosingAssign maps an append call to the destination it is
	// assigned to, for the self-append exemption.
	enclosingAssign map[*ast.CallExpr]ast.Expr
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:            pass,
		scopes:          map[types.Object]*fnScope{},
		lits:            map[*ast.FuncLit]*fnScope{},
		allocates:       map[types.Object]string{},
		enclosingAssign: map[*ast.CallExpr]ast.Expr{},
	}

	pkgRoots := roots[pass.Pkg.Name()]
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			sc := &fnScope{
				obj:   obj,
				name:  analysis.ObjectKey(obj),
				body:  fn.Body,
				ftype: fn.Type,
				ann:   parseAnnotation(fn.Doc),
			}
			if sc.ann == annHot {
				sc.root = eventRoot
			} else if sc.ann != annCold && pkgRoots != nil {
				sc.root = pkgRoots[sc.name]
			}
			c.scopes[obj] = sc
			c.prepare(sc)
		}
	}

	c.summarize()
	c.exportFacts()
	c.report()
	return nil
}

// prepare builds the scope's CFG, block facts, exemption ranges and
// nested closure scopes.
func (c *checker) prepare(sc *fnScope) {
	sc.graph = cfg.New(sc.body)
	sc.perB = map[*cfg.Block]*blockFacts{}
	sc.closures = map[types.Object]*fnScope{}
	sc.exempt = c.exemptRanges(sc.body, sc.ftype)
	for _, b := range sc.graph.Blocks {
		bf := &blockFacts{}
		for _, n := range b.Nodes {
			c.scanNode(sc, n, bf)
		}
		if len(bf.sites) > 0 || len(bf.callees) > 0 || len(bf.lits) > 0 {
			sc.perB[b] = bf
		}
	}
}

// exemptRanges collects the body regions whose allocations are
// amortized or cold: capacity-guard and lazy-init conditionals, and
// final-error-result expressions of returns in error-returning
// functions.
func (c *checker) exemptRanges(body *ast.BlockStmt, ftype *ast.FuncType) []posRange {
	var out []posRange
	returnsError := false
	if ftype.Results != nil && len(ftype.Results.List) > 0 {
		last := ftype.Results.List[len(ftype.Results.List)-1]
		if t := c.pass.TypesInfo.TypeOf(last.Type); t != nil && isErrorType(t) {
			returnsError = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			switch guardKind(n.Cond) {
			case guardGrow, guardNilInit:
				out = append(out, posRange{n.Body.Pos(), n.Body.End()})
			case guardNonNil:
				if n.Else != nil {
					out = append(out, posRange{n.Else.Pos(), n.Else.End()})
				}
			}
		case *ast.ReturnStmt:
			if returnsError && len(n.Results) > 0 {
				last := n.Results[len(n.Results)-1]
				out = append(out, posRange{last.Pos(), last.End()})
			}
		}
		return true
	})
	return out
}

type guard int

const (
	guardNone guard = iota
	guardGrow
	guardNilInit
	guardNonNil
)

// guardKind classifies a condition as a capacity guard
// (cap(x) < n / cap(x) <= n), a lazy-init guard (x == nil), or an
// initialized guard (x != nil, whose *else* is the lazy path).
func guardKind(cond ast.Expr) guard {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	switch be.Op {
	case token.LSS, token.LEQ:
		if call, ok := ast.Unparen(be.X).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "cap" {
				return guardGrow
			}
		}
	case token.GTR, token.GEQ:
		if call, ok := ast.Unparen(be.Y).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "cap" {
				return guardGrow
			}
		}
	case token.EQL:
		if isNil(be.X) || isNil(be.Y) {
			return guardNilInit
		}
	case token.NEQ:
		if isNil(be.X) || isNil(be.Y) {
			return guardNonNil
		}
	}
	return guardNone
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func (sc *fnScope) isExempt(p token.Pos) bool {
	for _, r := range sc.exempt {
		if r.contains(p) {
			return true
		}
	}
	return false
}

// scanNode walks one CFG node's subtree collecting allocation sites,
// resolved callees and nested literals. FuncLit subtrees are fenced
// off into their own scopes (their bodies only run when invoked).
func (c *checker) scanNode(sc *fnScope, n ast.Node, bf *blockFacts) {
	// (variable, literal) bindings found here; resolved to scopes
	// after the walk, once the literals are registered.
	type binding struct {
		obj types.Object
		lit *ast.FuncLit
	}
	var bindings []binding
	// A RangeStmt lands in the loop-head block for its per-iteration
	// bind, but its X and Body are lowered into other blocks — walking
	// the whole subtree here would double-count their sites.
	if _, ok := n.(*ast.RangeStmt); ok {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			litScope := &fnScope{
				name:  "func literal",
				body:  x.Body,
				ftype: x.Type,
			}
			c.lits[x] = litScope
			c.prepare(litScope)
			bf.lits = append(bf.lits, x)
			if c.captures(x) && !c.litEscapeExempt(n, x) && !sc.isExempt(x.Pos()) {
				bf.sites = append(bf.sites, site{x.Pos(), "closure captures variables"})
			}
			return false // body analyzed via its own scope

		case *ast.CallExpr:
			c.scanCall(sc, x, bf)
			return true

		case *ast.CompositeLit:
			if sc.isExempt(x.Pos()) {
				return true
			}
			switch c.pass.TypesInfo.TypeOf(x).Underlying().(type) {
			case *types.Map:
				bf.sites = append(bf.sites, site{x.Pos(), "map literal"})
			case *types.Slice:
				bf.sites = append(bf.sites, site{x.Pos(), "slice literal"})
			}
			return true

		case *ast.UnaryExpr:
			if x.Op == token.AND && !sc.isExempt(x.Pos()) {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					bf.sites = append(bf.sites, site{x.Pos(), "heap composite literal (&T{...})"})
				}
			}
			return true

		case *ast.BinaryExpr:
			if x.Op == token.ADD && !sc.isExempt(x.Pos()) {
				if t := c.pass.TypesInfo.TypeOf(x); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						bf.sites = append(bf.sites, site{x.Pos(), "string concatenation"})
					}
				}
			}
			return true

		case *ast.AssignStmt:
			// Record append destinations for the self-append
			// exemption, and `name := func(...){...}` closure bindings
			// for hot propagation through local calls.
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
						c.enclosingAssign[call] = x.Lhs[i]
					}
					if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
						if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
							if obj := c.defOrUse(id); obj != nil {
								bindings = append(bindings, binding{obj, lit})
							}
						}
					}
				}
			}
			// `s += "x"` is string concatenation too.
			if x.Tok == token.ADD_ASSIGN && !sc.isExempt(x.Pos()) {
				if t := c.pass.TypesInfo.TypeOf(x.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						bf.sites = append(bf.sites, site{x.Pos(), "string concatenation"})
					}
				}
			}
			c.scanBoxing(sc, x, bf)
			return true
		case *ast.SendStmt:
			c.boxingAt(sc, x.Value, c.pass.TypesInfo.TypeOf(x.Chan), bf, true)
			return true
		}
		return true
	})
	for _, bind := range bindings {
		sc.closures[bind.obj] = c.lits[bind.lit]
	}
}

// scanCall classifies one call: builtin allocator, growing append,
// stdlib denylist, same-package propagation edge, cross-package fact
// lookup, or interface-dispatch (skipped).
func (c *checker) scanCall(sc *fnScope, call *ast.CallExpr, bf *blockFacts) {
	exempt := sc.isExempt(call.Pos())
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if c.isBuiltin(fun) {
				if !exempt {
					bf.sites = append(bf.sites, site{call.Pos(), "make"})
				}
				return
			}
		case "new":
			if c.isBuiltin(fun) {
				if !exempt {
					bf.sites = append(bf.sites, site{call.Pos(), "new"})
				}
				return
			}
		case "append":
			if c.isBuiltin(fun) {
				if !exempt && !c.selfAppend(call) {
					bf.sites = append(bf.sites, site{call.Pos(), "append may grow its backing array"})
				}
				return
			}
		}
		obj := c.pass.TypesInfo.Uses[fun]
		if obj == nil {
			return
		}
		denylisted := false
		switch o := obj.(type) {
		case *types.Builtin:
			// Remaining builtins (panic, copy, delete, ...) do not
			// heap-allocate per call; in particular a panic argument is
			// never on the hot path, so its boxing is not reported.
			return
		case *types.Func:
			denylisted = c.addCallee(call, o, bf, exempt)
		case *types.Var:
			// Possibly a local closure variable.
			bf.callees = append(bf.callees, calleeRef{call.Pos(), o, false})
		}
		if !denylisted {
			c.callArgBoxing(sc, call, bf)
		}

	case *ast.SelectorExpr:
		obj := c.pass.TypesInfo.Uses[fun.Sel]
		fnObj, ok := obj.(*types.Func)
		if !ok {
			return
		}
		// Interface dispatch cannot be resolved statically: skip, per
		// the documented limitation.
		if sel := c.pass.TypesInfo.Selections[fun]; sel != nil {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return
			}
		}
		if !c.addCallee(call, fnObj, bf, exempt) {
			c.callArgBoxing(sc, call, bf)
		}

	case *ast.FuncLit:
		// Immediately invoked literal: runs here; its scope is marked
		// hot via bf.lits during reporting.
	}
}

// addCallee records a resolved function callee, flagging stdlib
// denylist calls immediately; it reports whether the call was
// denylist-flagged (so arg boxing is not double-reported).
func (c *checker) addCallee(call *ast.CallExpr, fn *types.Func, bf *blockFacts, exempt bool) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false // builtins like error.Error
	}
	if pkg == c.pass.Pkg {
		bf.callees = append(bf.callees, calleeRef{call.Pos(), fn, false})
		return false
	}
	if names, ok := allocStdlib[pkg.Path()]; ok {
		if names["*"] || names[fn.Name()] {
			if !exempt {
				bf.sites = append(bf.sites, site{call.Pos(), fmt.Sprintf("call to %s.%s allocates", pkg.Name(), fn.Name())})
			}
			return true
		}
	}
	bf.callees = append(bf.callees, calleeRef{call.Pos(), fn, true})
	return false
}

func (c *checker) isBuiltin(id *ast.Ident) bool {
	obj := c.pass.TypesInfo.Uses[id]
	_, ok := obj.(*types.Builtin)
	return ok
}

// selfAppend reports the amortized-reuse append forms: the call is
// the single RHS of an assignment whose destination is textually
// identical to the append base (x = append(x, ...),
// x = append(x[:0], ...), s.buf = append(s.buf, ...)).
func (c *checker) selfAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	as, ok := c.enclosingAssign[call]
	if !ok {
		return false
	}
	base := ast.Unparen(call.Args[0])
	if sl, ok := base.(*ast.SliceExpr); ok {
		base = ast.Unparen(sl.X)
	}
	lhs := ast.Unparen(as)
	return types.ExprString(lhs) == types.ExprString(base)
}

// scanBoxing flags interface conversions on assignment.
func (c *checker) scanBoxing(sc *fnScope, as *ast.AssignStmt, bf *blockFacts) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := c.pass.TypesInfo.TypeOf(lhs)
		c.boxingAt(sc, as.Rhs[i], lt, bf, false)
	}
}

// boxingAt flags rhs if storing it into target type boxes a
// non-pointer-shaped value. chanElem unwraps a channel's element.
func (c *checker) boxingAt(sc *fnScope, rhs ast.Expr, target types.Type, bf *blockFacts, chanElem bool) {
	if target == nil || rhs == nil || sc.isExempt(rhs.Pos()) {
		return
	}
	if chanElem {
		ch, ok := target.Underlying().(*types.Chan)
		if !ok {
			return
		}
		target = ch.Elem()
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	rt := c.pass.TypesInfo.TypeOf(rhs)
	if rt == nil || isPointerShaped(rt) {
		return
	}
	if b, ok := rt.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	bf.sites = append(bf.sites, site{rhs.Pos(), fmt.Sprintf("interface conversion boxes %s", rt.String())})
}

// callArgBoxing flags non-pointer-shaped arguments to interface
// parameters (skipped for stdlib denylist calls, already flagged).
func (c *checker) callArgBoxing(sc *fnScope, call *ast.CallExpr, bf *blockFacts) {
	sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if i < params.Len() {
			pt = params.At(i).Type()
		} else if sig.Variadic() && params.Len() > 0 {
			pt = params.At(params.Len() - 1).Type()
		}
		if pt == nil {
			continue
		}
		if sl, ok := pt.(*types.Slice); ok && sig.Variadic() && i >= params.Len()-1 {
			pt = sl.Elem()
		}
		c.boxingAt(sc, arg, pt, bf, false)
	}
}

// isPointerShaped reports whether values of t fit the interface data
// word without boxing.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// litEscapeExempt reports whether lit is a direct argument of a
// no-escape callee within node n (sort.Search and friends keep the
// closure on the stack).
func (c *checker) litEscapeExempt(n ast.Node, lit *ast.FuncLit) bool {
	exempt := false
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		isArg := false
		for _, a := range call.Args {
			if ast.Unparen(a) == lit {
				isArg = true
			}
		}
		if !isArg {
			return true
		}
		var pkgName, key string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if obj, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
				pkgName = obj.Pkg().Name()
				key = analysis.ObjectKey(obj)
			}
		case *ast.Ident:
			if obj, ok := c.pass.TypesInfo.Uses[fun].(*types.Func); ok && obj.Pkg() != nil {
				pkgName = obj.Pkg().Name()
				key = analysis.ObjectKey(obj)
			}
		}
		if m, ok := noEscape[pkgName]; ok && m[key] {
			exempt = true
		}
		return true
	})
	return exempt
}

// captures reports whether the literal references variables declared
// outside it (a non-capturing literal compiles to a static function —
// no allocation).
func (c *checker) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			// Package-level vars are static, not captures.
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return true
			}
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *checker) defOrUse(id *ast.Ident) types.Object {
	if o := c.pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return c.pass.TypesInfo.Uses[id]
}

// summarize computes the per-function allocates summary: first a
// fixpoint on the *set* of allocating functions, then one more
// deterministic pass recomputing each reason string against the
// complete set (so the exported fact bytes don't depend on map
// iteration order during the fixpoint).
func (c *checker) summarize() {
	changed := true
	for changed {
		changed = false
		for obj, sc := range c.scopes {
			if sc.ann == annCold {
				continue
			}
			if _, done := c.allocates[obj]; done {
				continue
			}
			if why := c.scopeAllocates(sc, map[*fnScope]bool{}); why != "" {
				c.allocates[obj] = why
				changed = true
			}
		}
	}
	for obj := range c.allocates {
		c.allocates[obj] = c.scopeAllocates(c.scopes[obj], map[*fnScope]bool{})
	}
}

// scopeAllocates returns a reason if sc's body (including nested
// literals) may allocate per call, or "". Blocks are visited in
// builder order so the "first" reason is stable.
func (c *checker) scopeAllocates(sc *fnScope, visiting map[*fnScope]bool) string {
	if visiting[sc] {
		return ""
	}
	visiting[sc] = true
	defer delete(visiting, sc)
	for _, b := range sc.graph.Blocks {
		bf, ok := sc.perB[b]
		if !ok {
			continue
		}
		if len(bf.sites) > 0 {
			return bf.sites[0].why
		}
		for _, lit := range bf.lits {
			if why := c.scopeAllocates(c.lits[lit], visiting); why != "" {
				return why
			}
		}
		for _, ref := range bf.callees {
			// Calls inside a guard-exempt region (lazy init, capacity
			// growth, error construction) are amortized: they must not
			// leak into the function's own exported fact.
			if sc.isExempt(ref.pos) {
				continue
			}
			if why := c.calleeAllocates(sc, ref, visiting); why != "" {
				return why
			}
		}
	}
	return ""
}

// calleeAllocates resolves one callee reference to a reason string.
// Same-package reasons deliberately do not embed the callee's own
// reason: nesting would make the string depend on fixpoint order.
func (c *checker) calleeAllocates(sc *fnScope, ref calleeRef, visiting map[*fnScope]bool) string {
	if ref.cross {
		var fact Allocates
		if c.pass.ImportObjectFact(ref.obj, &fact) {
			return fmt.Sprintf("calls %s.%s, which allocates: %s", ref.obj.Pkg().Name(), analysis.ObjectKey(ref.obj), fact.Why)
		}
		return ""
	}
	if callee, ok := c.scopes[ref.obj]; ok {
		if callee.ann == annCold {
			return ""
		}
		if _, ok := c.allocates[ref.obj]; ok {
			return fmt.Sprintf("calls %s, which allocates", callee.name)
		}
		return ""
	}
	if litScope, ok := sc.closures[ref.obj]; ok && litScope != nil {
		if why := c.scopeAllocates(litScope, visiting); why != "" {
			return "calls a closure that allocates"
		}
	}
	return ""
}

// exportFacts publishes the Allocates fact for every non-cold
// function with a per-call allocation, so dependent packages see it.
func (c *checker) exportFacts() {
	for obj, why := range c.allocates {
		c.pass.ExportObjectFact(obj, &Allocates{Why: why})
	}
}

// report walks the hot region, flags its allocation sites, and
// propagates hotness through same-package calls and closures.
func (c *checker) report() {
	// Seed: root scopes.
	var work []*fnScope
	mark := func(sc *fnScope) {
		if sc == nil || sc.hot || sc.ann == annCold {
			return
		}
		sc.hot = true
		work = append(work, sc)
	}
	for _, sc := range c.scopes {
		if sc.root != notRoot {
			mark(sc)
		}
	}
	seen := map[*fnScope]bool{}
	for len(work) > 0 {
		sc := work[0]
		work = work[1:]
		if seen[sc] {
			continue
		}
		seen[sc] = true
		for _, b := range sc.graph.Blocks {
			if sc.root == streamRoot && !sc.graph.InCycle(b) {
				continue // stream roots: only the loop interior is hot
			}
			bf, ok := sc.perB[b]
			if !ok {
				continue
			}
			for _, s := range bf.sites {
				c.pass.Reportf(s.pos, "hot path (%s) allocates: %s", sc.name, s.why)
			}
			for _, lit := range bf.lits {
				mark(c.lits[lit])
			}
			for _, ref := range bf.callees {
				if sc.isExempt(ref.pos) {
					continue
				}
				if ref.cross {
					var fact Allocates
					if c.pass.ImportObjectFact(ref.obj, &fact) {
						c.pass.Reportf(ref.pos, "hot path (%s) calls %s.%s, which allocates: %s",
							sc.name, ref.obj.Pkg().Name(), analysis.ObjectKey(ref.obj), fact.Why)
					}
					continue
				}
				if callee, ok := c.scopes[ref.obj]; ok {
					mark(callee)
					continue
				}
				if litScope, ok := sc.closures[ref.obj]; ok {
					mark(litScope)
				}
			}
		}
	}
}
