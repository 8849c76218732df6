package repro

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

// testOnlyExports are exported names under internal/ that only tests
// read, each because a test uses it to check other code.
var testOnlyExports = map[string]string{
	"repro/internal/sparse.Bandwidth":          "the ordering tests measure what RCM buys",
	"repro/internal/distributed.StatsOf":       "the distributed tests check the engine's transfer ledger",
	"repro/internal/baseline.IsReductionTree":  "the RedTree tests check the transform's shape",
	"repro/internal/moldable.RigidProfile":     "the moldable tests pin the width-1 case to the rigid engine",
	"repro/internal/workload.FrontierRandom":   "the zero policy; the workload tests set it to compare tree heights",
	"repro/internal/harness.HeurRedTree":       "the harness tests name the RedTree rows they check",
	"repro/internal/analysis/analysistest.Run": "every analyzer test drives its fixtures through it",
}

// TestNoDeadExports fails on any exported package-level func, type,
// const or var under internal/ that no non-test file of the module —
// bench/, cmd/ and examples/ included — references outside its own
// declaration, unless testOnlyExports names it.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module from source")
	}
	l, err := load.New(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ pos, end token.Pos }
	decls := map[types.Object]span{} // candidate → its declaration
	var pkgs []*load.Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
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
	}
	var dead []string
	for obj := range decls {
		name := obj.Pkg().Path() + "." + obj.Name()
		if _, ok := testOnlyExports[name]; !ok && !used[obj] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test file of the module reads it: delete it, or name it in testOnlyExports with the test that needs it", name)
	}
	for name := range testOnlyExports {
		if obj := lookup(pkgs, name); obj == nil || used[obj] {
			t.Errorf("testOnlyExports names %s, which is gone or read outside tests: drop the entry", name)
		}
	}
}

// lookup resolves "import/path.Name" among the loaded packages.
func lookup(pkgs []*load.Package, name string) types.Object {
	i := strings.LastIndex(name, ".")
	for _, pkg := range pkgs {
		if pkg.Path == name[:i] {
			return pkg.Types.Scope().Lookup(name[i+1:])
		}
	}
	return nil
}
