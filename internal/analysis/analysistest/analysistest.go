// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want
// annotations, mirroring the x/tools package of the same name on the
// standard library only.
//
// A fixture file marks each expected diagnostic on the line it occurs:
//
//	st.FreeMem = 0 // want `writes through its \*State`
//
// The annotation is one or more backquoted or double-quoted regular
// expressions; each must match a distinct diagnostic reported on that
// line, and every diagnostic must be matched by some annotation —
// unexpected diagnostics and unmatched annotations both fail the test.
// Lines with no annotation assert the absence of diagnostics, so the
// same fixture carries positive and negative cases.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/load"
)

// Run loads each fixture package (an import path under
// testdata/src, e.g. "errtyped") and applies the analyzer, comparing
// diagnostics against the fixtures' // want annotations.
func Run(t *testing.T, testdataSrc string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader, err := load.New(testdataSrc)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	session := driver.New(loader, []*analysis.Analyzer{a})
	for _, pkgPath := range pkgs {
		findings, err := session.Run(pkgPath)
		if err != nil {
			t.Fatalf("analysistest: run %s on %s: %v", a.Name, pkgPath, err)
		}
		pkg, err := loader.Load(pkgPath)
		if err != nil {
			t.Fatalf("analysistest: load %s: %v", pkgPath, err)
		}
		var diags []analysis.Diagnostic
		for _, f := range findings {
			if !f.Diag.Suppressed {
				diags = append(diags, f.Diag)
			}
		}
		check(t, loader.Fset(), pkg.Files, a.Name, pkgPath, diags)
	}
}

// want is one expected-diagnostic annotation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, analyzer, pkgPath string, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				ws, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, re := range ws {
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: re.String()})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected %s diagnostic at %s:%d: %s", pkgPath, analyzer, pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no %s diagnostic at %s:%d matching %q", pkgPath, analyzer, w.file, w.line, w.raw)
		}
	}
}

// parseWant extracts the patterns of a // want comment, or nil if the
// comment is not a want annotation.
func parseWant(text string) ([]*regexp.Regexp, error) {
	rest, ok := strings.CutPrefix(text, "// want ")
	if !ok {
		rest, ok = strings.CutPrefix(text, "//want ")
	}
	if !ok {
		return nil, nil
	}
	var out []*regexp.Regexp
	rest = strings.TrimSpace(rest)
	for rest != "" {
		var pat string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` in want annotation")
			}
			pat = rest[1 : 1+end]
			rest = rest[end+2:]
		case '"':
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return nil, fmt.Errorf("bad quoted want pattern: %v", err)
			}
			pat, err = strconv.Unquote(q)
			if err != nil {
				return nil, fmt.Errorf("bad quoted want pattern: %v", err)
			}
			rest = rest[len(q):]
		default:
			return nil, fmt.Errorf("want annotation patterns must be quoted or backquoted, got %q", rest)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", pat, err)
		}
		out = append(out, re)
		rest = strings.TrimSpace(rest)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want annotation")
	}
	return out, nil
}
