// Package analysis is the spine of treeschedlint: a minimal, std-lib
// only re-implementation of the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) plus the repo's suppression
// directive. The x/tools module is deliberately not a dependency — the
// repo has none — so the suite carries its own driver layer, one path
// for the command and the tests alike:
//
//	internal/analysis/load         loads+typechecks packages from source
//	internal/analysis/driver       runs the analyzers over a loaded package
//	internal/analysis/analysistest checks driver output against fixtures
//
// The analyzers themselves (policypure, detfree, errtyped, goroleak)
// live in subpackages and are registered by cmd/treeschedlint. Each
// enforces one contract whose violation is silent at run time and
// visible to the analyzer where production code commits it; DESIGN.md
// §11 documents the contracts and §13 the rule an analyzer must meet
// to be here.
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
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid identifier.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// Run applies the check to one package and reports diagnostics
	// through pass.Report/Reportf.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass hands one typechecked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report publishes one diagnostic. RunAnalyzer installs a hook
	// that marks diagnostics suppressed by a //lint:ignore directive.
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
	// Suppressed marks a finding covered by a //lint:ignore
	// directive. Suppressed findings stay in the stream (the -json
	// mode lists them for auditability) but must not be printed as
	// failures or affect the exit status.
	Suppressed bool
}

// IgnoreDirective is the suppression marker RunAnalyzer honors:
//
//	//lint:ignore <analyzer> <reason>
//
// placed either on the flagged line itself (end-of-line comment) or on
// the line directly above it. <analyzer> is one analyzer name, a
// comma-separated list, or * for all; a non-empty reason is required,
// mirroring staticcheck's directive so editors highlight it.
const IgnoreDirective = "//lint:ignore"

// ignoreSet maps file line numbers to the analyzer names suppressed at
// that line ("*" suppresses every analyzer).
type ignoreSet map[int][]string

// parseIgnores collects the //lint:ignore directives of a file. A
// directive on line L suppresses diagnostics on L (same-line comment)
// and on L+1 (directive on its own line above the flagged statement).
func parseIgnores(fset *token.FileSet, f *ast.File) ignoreSet {
	var set ignoreSet
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				continue // no reason given: directive is ignored
			}
			names := strings.Split(fields[0], ",")
			line := fset.Position(c.Pos()).Line
			if set == nil {
				set = make(ignoreSet)
			}
			set[line] = append(set[line], names...)
			set[line+1] = append(set[line+1], names...)
		}
	}
	return set
}

// suppressed reports whether a diagnostic by analyzer name at pos is
// covered by an ignore directive.
func (s ignoreSet) suppressed(fset *token.FileSet, name string, pos token.Pos) bool {
	if s == nil {
		return false
	}
	for _, n := range s[fset.Position(pos).Line] {
		if n == "*" || n == name {
			return true
		}
	}
	return false
}

// RunAnalyzer applies one analyzer to a typechecked package and returns
// its diagnostics in source order, //lint:ignore'd ones marked
// Suppressed rather than dropped. It installs the Report hook and
// sorts by position, so the command and analysistest report the same
// findings for the same input.
func RunAnalyzer(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	ignores := make(map[*token.File]ignoreSet)
	for _, f := range files {
		if tf := fset.File(f.Pos()); tf != nil {
			ignores[tf] = parseIgnores(fset, f)
		}
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report: func(d Diagnostic) {
			if set := ignores[fset.File(d.Pos)]; set.suppressed(fset, a.Name, d.Pos) {
				d.Suppressed = true
			}
			diags = append(diags, d)
		},
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
