package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Loader parses and type-checks packages of this module using only the
// standard library: module-local import paths resolve to source directories
// under the module root, and standard-library imports go through the
// compiler's source importer. One Loader caches every package it checks, so
// loading all of ./... type-checks each dependency exactly once.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root directory
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
}

// Package is one parsed, type-checked package plus everything the analyzers
// need to inspect it.
type Package struct {
	Path     string
	Dir      string
	Files    []*ast.File
	Fset     *token.FileSet
	Types    *types.Package
	Info     *types.Info
	TypeErrs []error // type errors, collected rather than fatal
}

// NewLoader creates a loader rooted at the module containing dir (found by
// walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		module:  mod,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// ModuleRoot returns the module root directory.
func (l *Loader) ModuleRoot() string { return l.root }

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.module }

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			return p, nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load parses and type-checks the package in the given directory. The import
// path is derived from the directory's position under the module root;
// directories outside the module (fixtures under testdata) get a synthetic
// path.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(abs)
	return l.loadPath(path, abs)
}

func (l *Loader) importPathFor(abs string) string {
	if rel, err := filepath.Rel(l.root, abs); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.module
		}
		return l.module + "/" + filepath.ToSlash(rel)
	}
	return "shmemvet.fixture/" + filepath.Base(abs)
}

func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	for _, n := range names {
		fn := filepath.Join(dir, n)
		f, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: &chainImporter{l: l},
		Error:    func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if err != nil && tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// chainImporter resolves module-local paths from source under the module
// root and delegates everything else to the standard-library source importer.
type chainImporter struct{ l *Loader }

func (c *chainImporter) Import(path string) (*types.Package, error) {
	l := c.l
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		p, err := l.loadPath(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
