package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis/load"
)

// testOnlyExports are exported names under internal/ that only tests
// read, each because a test uses it to check other code.
var testOnlyExports = map[string]string{
	"repro/internal/sparse.Bandwidth":           "the ordering tests measure what RCM buys",
	"repro/internal/distributed.StatsOf":        "the distributed tests check the engine's transfer ledger",
	"repro/internal/baseline.IsReductionTree":   "the RedTree tests check the transform's shape",
	"repro/internal/moldable.RigidProfile":      "the moldable tests pin the width-1 case to the rigid engine",
	"repro/internal/harness.HeurRedTree":        "the harness tests name the RedTree rows they check",
	"repro/internal/analysis/analysistest.Run":  "every analyzer test drives its fixtures through it",
	"repro/internal/leakcheck.Main":             "the TestMain of each package that starts goroutines fails the binary on a leak",
	"repro/internal/analysis/detfree.Analyzer":  "TestContracts runs it over the module",
	"repro/internal/analysis/errtyped.Analyzer": "TestContracts runs it over the module",
	"repro/internal/analysis/goroleak.Analyzer": "TestContracts runs it over the module",
}

// testOnlyMethods are exported methods under internal/ that only tests
// call, each because a test uses it to check other code.
var testOnlyMethods = map[string]string{
	"repro/internal/analysis/load.(*Loader).Expand": "loadModule expands ./... for TestContracts and the dead-code tests",
}

// testOnlyFields are exported struct fields under internal/ that only
// tests set, each an oracle switch a test turns on.
var testOnlyFields = map[string]string{}

// testOnlyReadFields are exported struct fields under internal/ that
// only tests read, each an oracle a test checks other code against.
var testOnlyReadFields = map[string]string{
	"repro/internal/analysis/load.Package.Path":           "the module tests pick internal/ packages and name findings by it",
	"repro/internal/distributed.MappingStats.CrossEdges":  "the distributed tests check the engine's transfer count against it",
	"repro/internal/distributed.MappingStats.CrossVolume": "the distributed tests check the engine's transfer volume against it",
	"repro/internal/distributed.MappingStats.Work":        "the mapping tests check that every domain gets work",
	"repro/internal/distributed.Result.Transfers":         "the distributed tests check it against StatsOf's cross edges",
	"repro/internal/executor.Result.PeakMem":              "the live-run tests check the model peak stays within the bound",
	"repro/internal/multitree.JobResult.Nodes":            "the exactly-once oracles count a survivor's commits against it",
	"repro/internal/sparse.AssemblyResult.Fronts":         "the assembly tests check the fronts cover every column",
	"repro/internal/sparse.AssemblyResult.NNZL":           "the assembly tests pin the factor's fill",
	"repro/internal/sparse.AssemblyResult.VirtualRoot":    "the assembly tests exempt the zero-cost root from the work check",
}

var (
	moduleOnce   sync.Once
	moduleLoader *load.Loader // its Fset positions every loaded file
	modulePkgs   []*load.Package
	moduleErr    error
)

// loadModule typechecks every non-test file of the module — bench/,
// cmd/ and examples/ included — once for the checks below and
// TestContracts.
func loadModule(t *testing.T) []*load.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the whole module from source")
	}
	moduleOnce.Do(func() {
		l, err := load.New(".")
		if err != nil {
			moduleErr = err
			return
		}
		moduleLoader = l
		paths, err := l.Expand([]string{"./..."})
		if err != nil {
			moduleErr = err
			return
		}
		for _, path := range paths {
			pkg, err := l.Load(path)
			if err != nil {
				moduleErr = err
				return
			}
			modulePkgs = append(modulePkgs, pkg)
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

// internalPkgs yields the loaded packages under internal/.
func internalPkgs(pkgs []*load.Package) []*load.Package {
	var out []*load.Package
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.Path, "repro/internal/") {
			out = append(out, pkg)
		}
	}
	return out
}

// TestNoDeadExports fails on any exported package-level func, type,
// const or var under internal/ that no non-test file of the module
// references outside its own declaration, unless testOnlyExports names
// it, and on any exported method there that no non-test file selects
// or reaches through an interface, unless testOnlyMethods names it. A
// method is reached through an interface when non-test code converts a
// value of its receiver type to an interface type that has the method
// (io.Reader, fmt.Stringer, core.Scheduler, …). It also fails on any
// exported name of package repro without a reader (see deadRootExports).
func TestNoDeadExports(t *testing.T) {
	pkgs := loadModule(t)
	for _, name := range deadRootExports(t, pkgs) {
		t.Errorf("repro.%s is exported but has no reader in cmd/, examples/, an Example of example_test.go or a repro.%s mention in %s: show a user why they want it, or delete it", name, name, strings.Join(rootDocs, " or "))
	}
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{} // candidate → its declaration
	for _, pkg := range internalPkgs(pkgs) {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						decls[pkg.Info.Defs[d.Name]] = span{d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls[pkg.Info.Defs[s.Name]] = span{s.Pos(), s.End()}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									decls[pkg.Info.Defs[n]] = span{s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if d, ok := decls[obj]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
				used[obj] = true
			}
		}
		markConverted(pkg, used)
	}
	byName := map[string]types.Object{}
	var dead []string
	for obj := range decls {
		name := qualified(obj)
		byName[name] = obj
		allow := testOnlyExports
		if isMethod(obj) {
			allow = testOnlyMethods
		}
		if _, ok := allow[name]; !ok && !used[obj] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		if isMethod(byName[name]) {
			t.Errorf("%s is exported but no non-test file of the module calls it or converts its receiver to an interface that has it: delete it, or name it in testOnlyMethods with the test that needs it", name)
		} else {
			t.Errorf("%s is exported but no non-test file of the module reads it: delete it, or name it in testOnlyExports with the test that needs it", name)
		}
	}
	for _, allow := range []map[string]string{testOnlyExports, testOnlyMethods} {
		for name := range allow {
			if obj := byName[name]; obj == nil || used[obj] {
				t.Errorf("%s is gone or read outside tests: drop its test-only entry", name)
			}
		}
	}
}

// maxFuncLines is the longest a non-test function may be, from func to
// its closing brace.
const maxFuncLines = 100

// TestFunctionLength fails on any function declared in a non-test file
// of the module, outside bench/ and testdata/, that spans more than
// maxFuncLines lines. There is no allowlist: split the function.
func TestFunctionLength(t *testing.T) {
	pkgs := loadModule(t)
	fset := moduleLoader.Fset()
	for _, pkg := range pkgs {
		if pkg.Path == "repro/bench" || strings.HasPrefix(pkg.Path, "repro/bench/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
				if n := end.Line - start.Line + 1; n > maxFuncLines && !strings.Contains(start.Filename, "/testdata/") {
					t.Errorf("%s: %s is %d lines, over %d: split it into named steps", start, qualified(pkg.Info.Defs[fd.Name]), n, maxFuncLines)
				}
			}
		}
	}
}

func isMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Type().(*types.Signature).Recv() != nil
}

// qualified names obj the way a Go stack trace names a function:
// "repro/internal/core.NewMemBooking", "repro/internal/service.(*Server).runJob".
func qualified(obj types.Object) string {
	name := obj.Name()
	if isMethod(obj) {
		recv := obj.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			name = "(*" + p.Elem().(*types.Named).Obj().Name() + ")." + name
		} else {
			name = recv.(*types.Named).Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}

// markConverted marks used, for every value of a concrete type that
// pkg converts to an interface type, the methods of that type the
// interface has. A conversion is explicit (I(x)) or implicit: a call
// argument, an assignment, a typed var, a return value, a composite
// literal element or a channel send whose destination is an interface.
func markConverted(pkg *load.Package, used map[types.Object]bool) {
	info := pkg.Info
	conv := func(dst types.Type, src ast.Expr) {
		st := info.TypeOf(src)
		if dst == nil || st == nil || types.IsInterface(st) {
			return
		}
		iface, ok := dst.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(st, true, m.Pkg(), m.Name())
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
	}
	var stack []ast.Node // the enclosing nodes, for a return's signature
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() {
					if len(n.Args) == 1 {
						conv(tv.Type, n.Args[0])
					}
				} else if sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature); ok {
					params := sig.Params()
					for i, arg := range n.Args {
						if sig.Variadic() && i >= params.Len()-1 {
							last := params.At(params.Len() - 1).Type()
							if !n.Ellipsis.IsValid() {
								last = last.(*types.Slice).Elem()
							}
							conv(last, arg)
						} else if i < params.Len() {
							conv(params.At(i).Type(), arg)
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						conv(info.TypeOf(lhs), n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						conv(info.TypeOf(n.Type), v)
					}
				}
			case *ast.ReturnStmt:
				var sig *types.Signature
				for i := len(stack) - 1; sig == nil && i >= 0; i-- {
					switch fn := stack[i].(type) {
					case *ast.FuncDecl:
						sig = info.Defs[fn.Name].Type().(*types.Signature)
					case *ast.FuncLit:
						sig = info.TypeOf(fn).(*types.Signature)
					}
				}
				if sig.Results().Len() == len(n.Results) {
					for i, r := range n.Results {
						conv(sig.Results().At(i).Type(), r)
					}
				}
			case *ast.SendStmt:
				conv(info.TypeOf(n.Chan).Underlying().(*types.Chan).Elem(), n.Value)
			case *ast.CompositeLit:
				typ := info.TypeOf(n)
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem() // an elided &T{...} element
				}
				for i, el := range n.Elts {
					kv, keyed := el.(*ast.KeyValueExpr)
					switch u := typ.Underlying().(type) {
					case *types.Struct:
						if keyed {
							conv(info.Uses[kv.Key.(*ast.Ident)].Type(), kv.Value)
						} else {
							conv(u.Field(i).Type(), el)
						}
					case *types.Map:
						conv(u.Key(), kv.Key)
						conv(u.Elem(), kv.Value)
					case interface{ Elem() types.Type }: // slice, array
						if keyed {
							el = kv.Value
						}
						conv(u.Elem(), el)
					}
				}
			}
			return true
		})
	}
}

// TestNoUnsetFields fails on any exported, untagged, non-embedded field
// of an exported struct type under internal/ that no non-test file of
// the module writes, unless testOnlyFields names it. A field is written
// by a composite-literal element (keyed or positional), as the target
// of an assignment or ++/-- (also through an index expression), or as
// the operand of &. Tagged fields are skipped: a decoder sets them.
func TestNoUnsetFields(t *testing.T) {
	pkgs := loadModule(t)
	fields := exportedFields(pkgs)
	set := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		info := pkg.Info
		// target marks the field an assignment target or & operand names.
		target := func(e ast.Expr) {
			if x := selectorOf(e); x != nil {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					set[v.Origin()] = true
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := info.TypeOf(n)
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem() // an elided &T{...} element
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								set[v.Origin()] = true
							}
						} else {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				}
				return true
			})
		}
	}
	checkFields(t, fields, set, testOnlyFields, "testOnlyFields",
		"no non-test file of the module sets it: make it a constant or delete it", "set")
}

// TestNoUnreadFields is TestNoUnsetFields' mirror: it fails on any such
// field that no non-test file of the module reads, unless
// testOnlyReadFields names it. A read is any selector of the field that
// is not the target of an assignment or ++/-- (also through an index
// expression); & counts as a read, since the pointer may be read through.
func TestNoUnreadFields(t *testing.T) {
	pkgs := loadModule(t)
	fields := exportedFields(pkgs)
	read := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		targets := map[*ast.SelectorExpr]bool{}
		for _, f := range pkg.Files {
			// Inspect visits a statement before its operands, so a target
			// is known before its selector is reached.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						targets[selectorOf(lhs)] = true
					}
				case *ast.IncDecStmt:
					targets[selectorOf(n.X)] = true
				case *ast.SelectorExpr:
					if v, ok := pkg.Info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !targets[n] {
						read[v.Origin()] = true
					}
				}
				return true
			})
		}
	}
	checkFields(t, fields, read, testOnlyReadFields, "testOnlyReadFields",
		"no non-test file of the module reads it: delete it", "read")
}

// selectorOf returns the field selector an assignment target names,
// looking through parentheses and index expressions, or nil.
func selectorOf(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// checkFields reports every candidate field not in seen and not allowed,
// and every allow entry that names no unseen candidate.
func checkFields(t *testing.T, fields map[*types.Var]string, seen map[*types.Var]bool, allow map[string]string, allowName, fix, verb string) {
	t.Helper()
	var missing []string
	for v, name := range fields {
		if _, ok := allow[name]; !ok && !seen[v] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is exported but %s, or name it in %s with the test that needs it", name, fix, allowName)
	}
	for name := range allow {
		found := false
		for v, n := range fields {
			if n == name {
				found = !seen[v]
			}
		}
		if !found {
			t.Errorf("%s names %s, which is gone or %s outside tests: drop the entry", allowName, name, verb)
		}
	}
}

// exportedFields returns every exported, untagged, non-embedded field of
// an exported struct type under internal/, named "path.Type.Field".
// Tagged fields are skipped: a decoder sets them and an encoder reads them.
func exportedFields(pkgs []*load.Package) map[*types.Var]string {
	fields := map[*types.Var]string{}
	for _, pkg := range internalPkgs(pkgs) {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				d, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						if fl.Tag != nil {
							continue
						}
						for _, n := range fl.Names {
							if n.IsExported() {
								fields[pkg.Info.Defs[n].(*types.Var)] = pkg.Path + "." + ts.Name.Name + "." + n.Name
							}
						}
					}
				}
			}
		}
	}
	return fields
}

// rootDocs are the documents whose repro.X mentions read the root API.
var rootDocs = []string{"README.md", "doc.go"}

// deadRootExports returns, sorted, the exported names of package repro
// that have no reader. The root API is for users, so its readers are
// what a user is shown: the packages under cmd/ and examples/, the
// Example functions of example_test.go and a repro.X mention in
// rootDocs. A type alias also has a reader in the signature of a
// function that has one.
func deadRootExports(t *testing.T, pkgs []*load.Package) []string {
	t.Helper()
	var root *load.Package
	for _, pkg := range pkgs {
		if pkg.Path == "repro" {
			root = pkg
		}
	}
	if root == nil {
		t.Fatal("package repro is not loaded")
	}
	scope := root.Types.Scope()
	read := map[string]bool{}
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.Path, "repro/cmd/") || strings.HasPrefix(pkg.Path, "repro/examples/") {
			for _, obj := range pkg.Info.Uses {
				if obj.Parent() == scope {
					read[obj.Name()] = true
				}
			}
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "example_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "repro" {
						read[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	mention := regexp.MustCompile(`\brepro\.([A-Z]\w*)`)
	for _, doc := range rootDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllSubmatch(b, -1) {
			read[string(m[1])] = true
		}
	}
	for _, f := range root.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && read[fd.Name.Name] {
				ast.Inspect(fd.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && root.Info.Uses[id] != nil && root.Info.Uses[id].Parent() == scope {
						read[id.Name] = true
					}
					return true
				})
			}
		}
	}
	var dead []string
	for _, name := range scope.Names() {
		if token.IsExported(name) && !read[name] {
			dead = append(dead, name)
		}
	}
	return dead
}
