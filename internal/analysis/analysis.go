// Package analysis is the spine of the module's contract checks: a
// minimal, std-lib only re-implementation of the
// golang.org/x/tools/go/analysis API shape (Analyzer, Pass,
// Diagnostic). The x/tools module is deliberately not a dependency —
// the repo has none — so the suite carries its own loader and runner:
//
//	internal/analysis/load         loads+typechecks packages from source
//	RunAnalyzer (this package)     runs one analyzer over a loaded package
//	internal/analysis/analysistest checks its output against fixtures
//
// The analyzers themselves (detfree, errtyped, goroleak) live in
// subpackages. The root package's TestContracts runs all three over
// every package of the module inside go test, and names each accepted
// finding in its contractExceptions map. Each analyzer enforces one
// contract whose violation is silent at run time and visible to the
// analyzer where production code commits it; DESIGN.md §11 documents
// the contracts and §13 the rule an analyzer must meet to be here.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string
	// Run applies the check to one package and reports diagnostics
	// through pass.Report/Reportf.
	Run func(pass *Pass) error
}

// A Pass hands one typechecked package to an analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report publishes one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a *_test.go file. The
// contract analyzers skip test files: tests deliberately construct
// violations (chaos tests compare error strings, benchmarks time with
// the wall clock) and the contracts govern production code.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Diagnostic is one finding, positioned in the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// RunAnalyzer applies one analyzer to a typechecked package and returns
// its diagnostics in source order. It installs the Report hook and
// sorts by position, so TestContracts and analysistest report the same
// findings for the same input.
func RunAnalyzer(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	// Analyzers visit files in Pass.Files order and nodes in source
	// order, so diags are already positionally sorted per file; a
	// stable cross-file sort keeps output independent of report order
	// without reordering equal positions.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diags[j].Pos < diags[j-1].Pos; j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
	return diags, nil
}
