// Package detfree enforces determinism on the packages whose output
// must be a pure function of (input, seed): the scheduling kernel and
// everything the serial==parallel goldens hash. A single wall-clock
// read or map-iteration-ordered append in these packages turns the
// byte-identical trace guarantee into a coin flip — and becomes a race
// once the multitree event loop is sharded across cores.
//
// In a boundary package (core, order, multitree, perturb, faults,
// workload, harness, sparse, sim, distributed, stats, pqueue,
// bounds, tree, baseline, moldable — matched by package name), the
// analyzer flags:
//
//   - time.Now / time.Since / time.Until — simulated time only; wall
//     clock belongs to the live layers (executor, service);
//   - the global math/rand source (rand.Intn, rand.Float64, ...) —
//     randomness must flow from an explicit seeded source
//     (workload.RNG, rand.New(rand.NewSource(seed)));
//   - sort.Slice whose comparator is not proven total by a final
//     tie-break on the index parameters — use sort.SliceStable or
//     slices.SortStableFunc, or end the less func with `return i < j`;
//   - ranging over a map where the iteration order can flow into
//     output: an append or string concatenation involving a loop
//     variable, a print/write call on one, or an argmin/argmax
//     selection (an if comparing a loop variable that assigns one to
//     an outer variable) — ties make the winner order-dependent.
//
// Order-independent map loops (counting, set insertion, draining into
// another map) are not flagged. A loop whose order provably cannot
// reach output is kept by naming its function, with the reason, in the
// root package's contractExceptions.
package detfree

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the detfree analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detfree",
	Run:  run,
}

// boundary lists the determinism-boundary packages by package name.
// Matching by name (not import path) lets the analysistest fixtures
// declare `package harness` and hit the same code path as the repo.
var boundary = map[string]bool{
	"core": true, "order": true, "multitree": true, "perturb": true,
	"faults": true, "workload": true, "harness": true, "sparse": true, "sim": true, "distributed": true, "stats": true,
	"pqueue": true, "bounds": true, "tree": true, "baseline": true, "moldable": true,
}

// randConstructors are the math/rand (and /v2) package-level functions
// that build explicit sources rather than reading the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !boundary[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// calleePkgFunc resolves a call to (package path, function name) when
// the callee is a package-level function; ok is false for methods,
// builtins, closures and function values.
func calleePkgFunc(pass *analysis.Pass, call *ast.CallExpr) (pkg, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, name, ok := calleePkgFunc(pass, call)
	if !ok {
		return
	}
	switch pkg {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s in determinism-boundary package %s: simulated time only; wall clock belongs to the live layers", name, pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			pass.Reportf(call.Pos(), "global math/rand.%s in determinism-boundary package %s: draw from an explicit seeded source instead", name, pass.Pkg.Name())
		}
	case "sort":
		if name == "Slice" && len(call.Args) == 2 && !totalComparator(call.Args[1]) {
			pass.Reportf(call.Pos(), "sort.Slice with a comparator not proven total in determinism-boundary package %s: use sort.SliceStable/slices.SortStableFunc, or end the less func with an index tie-break (return i < j)", pass.Pkg.Name())
		}
	}
}

// totalComparator reports whether the sort.Slice less argument is a
// func literal whose final statement returns a comparison of the two
// bare index parameters — the index tie-break that makes any
// lexicographic comparator above it a total order over positions.
func totalComparator(arg ast.Expr) bool {
	lit, ok := ast.Unparen(arg).(*ast.FuncLit)
	if !ok {
		return false // a named comparator is opaque; require stable sort
	}
	params := lit.Type.Params
	if params == nil || len(params.List) != 1 || len(params.List[0].Names) != 2 {
		return false
	}
	i, j := params.List[0].Names[0].Name, params.List[0].Names[1].Name
	body := lit.Body.List
	if len(body) == 0 {
		return false
	}
	ret, ok := body[len(body)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	cmp, ok := ast.Unparen(ret.Results[0]).(*ast.BinaryExpr)
	if !ok || (cmp.Op != token.LSS && cmp.Op != token.GTR) {
		return false
	}
	x, xok := ast.Unparen(cmp.X).(*ast.Ident)
	y, yok := ast.Unparen(cmp.Y).(*ast.Ident)
	if !xok || !yok {
		return false
	}
	return (x.Name == i && y.Name == j) || (x.Name == j && y.Name == i)
}

// checkMapRange flags range-over-map loops whose iteration order can
// flow into output.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	loopVars := map[types.Object]bool{}
	keyObjs := map[types.Object]bool{}
	for idx, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			loopVars[obj] = true
			if idx == 0 {
				keyObjs[obj] = true
			}
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			loopVars[obj] = true // range assigning to existing vars
			if idx == 0 {
				keyObjs[obj] = true
			}
		}
	}
	if len(loopVars) == 0 {
		return // `for range m` cannot leak order through its variables
	}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "map iteration order flows into %s in determinism-boundary package %s: iterate a sorted key slice instead", what, pass.Pkg.Name())
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if pkg, name, ok := calleePkgFunc(pass, n); ok && pkg == "fmt" && anyExpr(n.Args, mentions) {
				report(n.Pos(), "fmt."+name+" output")
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if isWriteName(sel.Sel.Name) && pass.TypesInfo.Selections[sel] != nil && anyExpr(n.Args, mentions) {
					report(n.Pos(), sel.Sel.Name+" output")
					return true
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && b.Name() == "append" && anyExpr(n.Args, mentions) {
					report(n.Pos(), "an append")
					return true
				}
			}
		case *ast.AssignStmt:
			// s += f(v) / s = s + f(v) string concatenation.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) && mentions(n.Rhs[0]) {
				report(n.Pos(), "a string concatenation")
			}
		case *ast.IfStmt:
			// Argmin/argmax: compare a loop variable, then assign the
			// key to a variable declared outside the loop — the winner
			// of a tie depends on iteration order.
			cond, ok := n.Cond.(*ast.BinaryExpr)
			if !ok || !isComparison(cond.Op) || !mentions(cond) {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				asg, ok := m.(*ast.AssignStmt)
				if !ok || asg.Tok != token.ASSIGN {
					return true
				}
				for i, rhs := range asg.Rhs {
					if i < len(asg.Lhs) && mentionsAny(pass, rhs, keyObjs) {
						report(asg.Pos(), "an argmin/argmax comparison (ties resolved by iteration order)")
						return false
					}
				}
				return true
			})
		}
		return true
	})
}

func anyExpr(es []ast.Expr, pred func(ast.Expr) bool) bool {
	for _, e := range es {
		if pred(e) {
			return true
		}
	}
	return false
}

func mentionsAny(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

func isWriteName(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println":
		return true
	}
	return false
}
