// Package driver runs analyzers over source-loaded packages. It is the
// one path from an import path to findings: cmd/treeschedlint and
// analysistest both run through a Session, so a fixture and the
// production tree are judged by the same code.
package driver

import (
	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// A Finding is one diagnostic attributed to its analyzer.
type Finding struct {
	Analyzer string
	Diag     analysis.Diagnostic
}

// A Session shares one loader (and so one parse and typecheck per
// package) across many package analyses.
type Session struct {
	Loader    *load.Loader
	Analyzers []*analysis.Analyzer
}

// New returns a Session running the given analyzers.
func New(loader *load.Loader, analyzers []*analysis.Analyzer) *Session {
	return &Session{Loader: loader, Analyzers: analyzers}
}

// Run loads and analyzes one package, returning its findings in
// analyzer registration order, positionally sorted within each
// analyzer (suppressed findings included, marked).
func (s *Session) Run(importPath string) ([]Finding, error) {
	pkg, err := s.Loader.Load(importPath)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, a := range s.Analyzers {
		diags, err := analysis.RunAnalyzer(a, s.Loader.Fset(), pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			out = append(out, Finding{Analyzer: a.Name, Diag: d})
		}
	}
	return out, nil
}
