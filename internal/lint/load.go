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

// Package is one loaded, parsed, and (best-effort) type-checked package.
type Package struct {
	// Dir is the package directory on disk.
	Dir string
	// RelPath is Dir relative to the module root, "." for the root
	// package. Allowlists match against this path.
	RelPath string
	// Fset positions all files of the load.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, sorted by filename.
	Files []*ast.File
	// Info carries type information; lookups may miss entries when
	// type-checking was incomplete, so analyzers must nil-check.
	Info *types.Info
	// Types is the checked package object (possibly partially complete).
	Types *types.Package
	// TypeErrors collects type-checker complaints; the syntactic
	// analyzers still run over packages that fail to check.
	TypeErrors []error
	// ModRoot is the module root the package was loaded from; escape
	// evidence and other path-relative lookups anchor here.
	ModRoot string
	// Escape, when non-nil, carries compiler escape-analysis evidence
	// (see AttachEscape); hotalloc corroborates its findings against it.
	Escape *EscapeIndex

	// load is the Load call that returned this package; whole-module
	// analyzers (testonly) look across its packages.
	load *loadSet

	directives []directive
	badDiags   []Diagnostic
	// hotpath and untrusted record the //lint:hotpath and
	// //lint:untrusted-input package markers.
	hotpath   bool
	untrusted bool
}

// loadSet is the outcome of one Load call, shared by every package it
// returned.
type loadSet struct {
	pkgs []*Package
	// whole reports that a pattern walked the module root (./...), so
	// pkgs holds every package of the module.
	whole bool
	// refs is testonly's reference index, built on first use.
	refs *refIndex
}

// Loader loads module packages for analysis.
type Loader struct {
	// ModRoot is the directory containing go.mod.
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	fset *token.FileSet
	std  types.Importer
	// pkgs caches every directory loaded so far, by path; a nil entry is
	// a directory without non-test Go files. Each module package is
	// type-checked once, so a types.Object is pointer-identical in the
	// package that declares it and in every package that imports it.
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader locates the module root at or above dir and prepares a loader.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving %s: %w", dir, err)
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot:  root,
		ModPath:  modPath,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}, nil
}

// Load resolves the given package patterns. Supported forms: "./...",
// "dir/...", plain directories ("./internal/energy", "."), and
// module-qualified import paths. Directories named testdata, hidden
// directories, directories without non-test Go files, and nested
// modules (a directory below the walk root with its own go.mod) are
// skipped.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, whole, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	set := &loadSet{whole: whole}
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkg.load = set
			set.pkgs = append(set.pkgs, pkg)
		}
	}
	return set.pkgs, nil
}

// expand resolves patterns to sorted package directories and reports
// whether one of them walked the whole module.
func (l *Loader) expand(patterns []string) ([]string, bool, error) {
	whole := false
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			whole = true
			if err := l.walk(l.ModRoot, add); err != nil {
				return nil, false, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := l.resolveDir(strings.TrimSuffix(pat, "/..."))
			whole = whole || filepath.Clean(root) == l.ModRoot
			if err := l.walk(root, add); err != nil {
				return nil, false, err
			}
		default:
			add(l.resolveDir(pat))
		}
	}
	sort.Strings(dirs)
	return dirs, whole, nil
}

// resolveDir maps a pattern base to a directory: module-qualified import
// paths land inside the module root, anything else is a file path.
func (l *Loader) resolveDir(pat string) string {
	if pat == l.ModPath {
		return l.ModRoot
	}
	if rest, ok := strings.CutPrefix(pat, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, rest)
	}
	if filepath.IsAbs(pat) {
		return pat
	}
	return filepath.Join(l.ModRoot, pat)
}

func (l *Loader) walk(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			// A directory holding its own go.mod is another module; like
			// the go command, ./... does not descend into it.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		add(path)
		return nil
	})
}

// loadDir parses and type-checks one directory, once per loader; returns
// nil if it holds no non-test Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	if l.checking[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", l.importPathFor(dir))
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		l.pkgs[dir] = nil
		return nil, nil
	}
	l.checking[dir] = true
	defer func() { l.checking[dir] = false }()
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil {
		rel = dir
	}
	pkg := &Package{
		Dir:     dir,
		RelPath: filepath.ToSlash(rel),
		Fset:    l.fset,
		Files:   files,
		ModRoot: l.ModRoot,
	}
	pkg.collectDirectives()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(l.importPathFor(dir), l.fset, files, info)
	pkg.Info = info
	pkg.Types = tpkg
	l.pkgs[dir] = pkg
	return pkg, nil
}

func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer: module-internal paths resolve to the
// package loadDir checked (checking it first if need be); everything
// else (the standard library) falls through to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path != l.ModPath && !strings.HasPrefix(path, l.ModPath+"/") {
		return l.std.Import(path)
	}
	dir := l.resolveDir(path)
	pkg, err := l.loadDir(dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return pkg.Types, nil
}
