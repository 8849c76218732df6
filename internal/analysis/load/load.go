// Package load typechecks packages from source using only the standard
// library — the substrate under internal/analysis/driver, for
// cmd/treeschedlint and analysistest fixtures alike. Intra-module imports ("repro/..." in
// the real tree, bare directory names under a fixture root) are
// resolved recursively from source; everything else is delegated to
// go/importer's "source" compiler, which reads the standard library
// from GOROOT. No export data, network or go/packages is needed.
package load

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// A Package is one loaded, typechecked package.
type Package struct {
	Path  string // import path ("repro/internal/core", or fixture dir)
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader loads packages rooted at a directory. It memoizes by import
// path, so a load of many packages typechecks shared dependencies once.
// A Loader is not safe for concurrent use.
type Loader struct {
	root      string // absolute directory the module (or fixture tree) lives in
	module    string // module path prefix; "" maps import paths to root-relative dirs
	goVersion string // from go.mod, e.g. "go1.22"; "" for fixtures
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*Package
	loading   map[string]bool
}

// New returns a Loader rooted at dir. If dir/go.mod exists, its module
// path maps "module/x/y" imports to dir/x/y; otherwise import paths are
// resolved as directories directly under dir (the fixture convention:
// root testdata/src, import "multitree" → testdata/src/multitree).
func New(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		root:    abs,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if mod, gover, err := readGoMod(filepath.Join(abs, "go.mod")); err == nil {
		l.module, l.goVersion = mod, gover
	}
	return l, nil
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// readGoMod extracts the module path and go version from a go.mod.
func readGoMod(file string) (module, goVersion string, err error) {
	f, err := os.Open(file)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if module == "" {
		return "", "", fmt.Errorf("load: no module line in %s", file)
	}
	return module, goVersion, sc.Err()
}

// dirFor maps an import path to a source directory, or "" if the path
// is not provided by this tree (and should fall back to the standard
// library importer).
func (l *Loader) dirFor(importPath string) string {
	if l.module != "" {
		if importPath == l.module {
			return l.root
		}
		if rest, ok := strings.CutPrefix(importPath, l.module+"/"); ok {
			return filepath.Join(l.root, filepath.FromSlash(rest))
		}
		return ""
	}
	dir := filepath.Join(l.root, filepath.FromSlash(importPath))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir
	}
	return ""
}

// Import implements types.Importer, resolving the dependency graph of
// packages under load.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if dir := l.dirFor(importPath); dir != "" {
		pkg, err := l.load(importPath, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(importPath)
}

// Load typechecks the package at the given import path (resolved
// against the loader's root) and returns it with full syntax and type
// information. Test files (*_test.go) are not loaded.
func (l *Loader) Load(importPath string) (*Package, error) {
	dir := l.dirFor(importPath)
	if dir == "" {
		return nil, fmt.Errorf("load: %q is outside the tree rooted at %s", importPath, l.root)
	}
	return l.load(importPath, dir)
}

func (l *Loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("load: import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: l, GoVersion: l.goVersion}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Expand resolves package patterns relative to the loader's root into
// import paths: a trailing "/..." walks the directory tree collecting
// every directory that holds non-test Go files (testdata and hidden
// directories are skipped, matching the go tool). Plain patterns are
// returned as-is after ./ cleanup.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var out []string
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		base, rec := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if !rec {
			out = append(out, l.importPathFor(base))
			continue
		}
		start := filepath.Join(l.root, filepath.FromSlash(base))
		err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				rel, err := filepath.Rel(l.root, p)
				if err != nil {
					return err
				}
				out = append(out, l.importPathFor(filepath.ToSlash(rel)))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (l *Loader) importPathFor(rel string) string {
	rel = path.Clean(strings.TrimPrefix(rel, "./"))
	if l.module == "" {
		return rel
	}
	if rel == "." || rel == "" {
		return l.module
	}
	return l.module + "/" + rel
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
