package lint

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
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path ("mio/internal/core"); external test packages get a "_test" suffix
	Dir   string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errors holds type-checking problems. Analysis still runs on a
	// package with errors (the AST and partial type info remain
	// usable), but cmd/miolint surfaces them.
	Errors []error
}

// Loader parses and type-checks every package of a module using only
// the standard library: module-internal imports are resolved by
// recursive loading, standard-library imports through the go/importer
// source importer (which type-checks GOROOT sources and therefore
// needs no compiled export data). _test.go files are merged into their
// package, and external (package foo_test) test packages are loaded
// too.
type Loader struct {
	Fset *token.FileSet

	moduleDir  string
	modulePath string
	std        types.ImporterFrom
	cache      map[string]*Package
	loading    map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		moduleDir:  root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// LoadModule loads every package under the module root, in a
// deterministic order. Directories named testdata, vendor or starting
// with "." or "_" are skipped, as the go tool does.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleDir &&
			(name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.moduleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.modulePath
		if rel != "." {
			path = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, xtest, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		if xtest != nil {
			pkgs = append(pkgs, xtest)
		}
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			return true
		}
	}
	return false
}

// loadDir parses and checks the package in dir plus, when present,
// its external test package.
func (l *Loader) loadDir(path, dir string) (pkg, xtest *Package, err error) {
	if p, ok := l.cache[path]; ok {
		return p, l.cache[path+"_test"], nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var base, xfiles []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %w", err)
		}
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			xfiles = append(xfiles, f)
		} else {
			base = append(base, f)
		}
	}
	if len(base) > 0 {
		pkg = l.check(path, dir, base)
		l.cache[path] = pkg
	}
	if len(xfiles) > 0 {
		xtest = l.check(path+"_test", dir, xfiles)
		l.cache[path+"_test"] = xtest
	}
	return pkg, xtest, nil
}

// ensure loads a module-internal package on demand (for imports).
func (l *Loader) ensure(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.moduleDir, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	p := l.check(path, dir, files)
	l.cache[path] = p
	return p, nil
}

// check type-checks files as one package.
func (l *Loader) check(path, dir string, files []*ast.File) *Package {
	l.loading[path] = true
	defer delete(l.loading, path)

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Info: info}
	if len(files) > 0 {
		pkg.Name = files[0].Name.Name
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l, dir: dir},
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	pkg.Types = tpkg
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	return pkg
}

// moduleImporter resolves module-internal imports recursively and
// delegates everything else to the GOROOT source importer.
type moduleImporter struct {
	l   *Loader
	dir string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.dir, 0)
}

func (m *moduleImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.l.modulePath || strings.HasPrefix(path, m.l.modulePath+"/") {
		// An external test package importing its own base package
		// resolves to the already-loaded (or on-demand loaded) base.
		p, err := m.l.ensure(path)
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, fmt.Errorf("lint: %s failed to type-check", path)
		}
		return p.Types, nil
	}
	return m.l.std.ImportFrom(path, srcDir, mode)
}

// CheckSource type-checks in-memory sources as a single package —
// used by the analyzer golden tests to load self-contained fixtures.
// files maps file names to source text; imports must be resolvable by
// the GOROOT source importer (i.e. standard library only).
func CheckSource(importPath string, files map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	var asts []*ast.File
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, files[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg := &Package{Path: importPath, Fset: fset, Files: asts, Info: info}
	if len(asts) > 0 {
		pkg.Name = asts[0].Name.Name
	}
	conf := types.Config{
		Importer: stdOnly{std},
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(importPath, fset, asts, info)
	pkg.Types = tpkg
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	return pkg, nil
}

type stdOnly struct{ std types.ImporterFrom }

func (s stdOnly) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return s.std.ImportFrom(path, "", 0)
}
