package repro

import (
	"go/ast"
	"go/constant"
	"go/token"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/detfree"
	"repro/internal/analysis/errtyped"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/load"
)

// A contractSite names the function in which an analyzer's findings
// are accepted.
type contractSite struct{ analyzer, fn string }

// contractExceptions are the functions whose findings TestContracts
// accepts, keyed by analyzer and the function's qualified name, each
// with the reason the contract holds there anyway. Keep them rare:
// each is a claim the analyzer cannot check.
var contractExceptions = map[contractSite]string{
	{"detfree", "repro/internal/harness.IDs"}: "the keys are sorted before they can reach output",
}

// TestContracts runs the determinism (detfree), typed-error (errtyped)
// and goroutine-lifetime (goroleak) analyzers over every package of the
// module and fails on each finding outside contractExceptions, on each
// exception that no longer matches a finding, and on a package gate
// that names a package the module no longer has.
func TestContracts(t *testing.T) {
	pkgs := loadModule(t)
	fset := moduleLoader.Fset()
	matched := map[contractSite]bool{}
	for _, pkg := range pkgs {
		for _, a := range []*analysis.Analyzer{detfree.Analyzer, errtyped.Analyzer, goroleak.Analyzer} {
			diags, err := analysis.RunAnalyzer(a, fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				site := contractSite{a.Name, enclosingFunc(pkg, d.Pos)}
				if _, ok := contractExceptions[site]; ok {
					matched[site] = true
					continue
				}
				t.Errorf("%s: %s [%s]", fset.Position(d.Pos), d.Message, a.Name)
			}
		}
	}
	for site := range contractExceptions {
		if !matched[site] {
			t.Errorf("contractExceptions names %s in %s, which has no %[1]s finding: drop the entry", site.analyzer, site.fn)
		}
	}

	names := map[string]bool{}
	for _, pkg := range pkgs {
		names[pkg.Types.Name()] = true
	}
	for _, gate := range []struct{ pkg, name string }{
		{"repro/internal/analysis/detfree", "boundary"},
		{"repro/internal/analysis/goroleak", "gated"},
	} {
		keys := gateKeys(pkgs, gate.pkg, gate.name)
		if len(keys) == 0 {
			t.Errorf("%s.%s: no package names found", gate.pkg, gate.name)
		}
		for _, k := range keys {
			if !names[k] {
				t.Errorf("%s.%s names package %q, which the module no longer has", gate.pkg, gate.name, k)
			}
		}
	}
}

// enclosingFunc returns the qualified name of the function declaration
// in pkg that contains pos, or the package path for a finding outside
// every function.
func enclosingFunc(pkg *load.Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if pos < f.FileStart || pos > f.FileEnd {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return qualified(pkg.Info.Defs[fd.Name])
			}
		}
	}
	return pkg.Path
}

// gateKeys returns the string keys of the map literal that
// initialises the package-level var name in the package at path.
func gateKeys(pkgs []*load.Package, path, name string) []string {
	var keys []string
	for _, pkg := range pkgs {
		if pkg.Path != path {
			continue
		}
		obj := pkg.Types.Scope().Lookup(name)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.ValueSpec)
				if !ok || pkg.Info.Defs[spec.Names[0]] != obj || obj == nil {
					return true
				}
				for _, el := range spec.Values[0].(*ast.CompositeLit).Elts {
					k := pkg.Info.Types[el.(*ast.KeyValueExpr).Key].Value
					keys = append(keys, constant.StringVal(k))
				}
				return false
			})
		}
	}
	return keys
}
