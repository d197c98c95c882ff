package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and (best-effort) type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/qosserver").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Name is the package clause name.
	Name string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Fset positions all files of the owning Program.
	Fset *token.FileSet
	// TypesPkg and TypesInfo carry the go/types results; they are non-nil
	// even when type checking was partial (see TypeErrors).
	TypesPkg  *types.Package
	TypesInfo *types.Info
	// TypeErrors collects type-check diagnostics. Analyzers degrade to
	// syntactic matching for nodes without type information, so a partial
	// check still yields useful findings.
	TypeErrors []error
}

// Program is a set of packages loaded for analysis.
type Program struct {
	// ModuleRoot is the directory containing go.mod ("" for ad-hoc loads).
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	Fset       *token.FileSet
	Packages   []*Package

	byPath map[string]*Package
	// funcs indexes every top-level FuncDecl by its types.Func object; built
	// lazily by funcIndex (dataflow.go).
	funcs map[types.Object]funcDeclInfo
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// readModulePath reads the module path declared in root's go.mod.
func readModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// LoadModule parses and type-checks every package under the module rooted
// at root, skipping testdata, vendor, hidden, and underscore directories.
// Test files (_test.go) are excluded: the analyzers guard library and
// binary code; tests legitimately use wall clocks and discard errors.
func LoadModule(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       stdFset,
		byPath:     make(map[string]*Package),
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "node_modules") {
			return filepath.SkipDir
		}
		files, pkgName, perr := parseDir(prog.Fset, path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg := &Package{Path: importPath, Dir: path, Name: pkgName, Files: files, Fset: prog.Fset}
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[importPath] = pkg
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	prog.typecheck()
	return prog, nil
}

// LoadDir loads the single directory dir as a one-package program under the
// given import path. Tests use it to present fixture packages to analyzers
// as if they lived at a real path (e.g. testdata loaded as
// "repro/internal/sim").
func LoadDir(dir, importPath string) (*Program, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath := importPath
	if i := strings.Index(importPath, "/"); i > 0 {
		modPath = importPath[:i]
	}
	prog := &Program{
		ModulePath: modPath,
		Fset:       stdFset,
		byPath:     make(map[string]*Package),
	}
	files, pkgName, err := parseDir(prog.Fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	pkg := &Package{Path: importPath, Dir: dir, Name: pkgName, Files: files, Fset: prog.Fset}
	prog.Packages = []*Package{pkg}
	prog.byPath[importPath] = pkg
	prog.typecheck()
	return prog, nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var files []*ast.File
	var pkgName string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints (//go:build lines and _GOOS/_GOARCH file
		// suffixes) for the host platform, like `go vet` does: without this,
		// a platform-split pair (a linux file beside its !linux stub) would
		// load both halves into one package and redeclare each other.
		if ok, merr := build.Default.MatchFile(dir, name); merr != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, "", fmt.Errorf("lint: %w", err)
		}
		if pkgName != "" && f.Name.Name != pkgName {
			// Mixed package clauses (e.g. a main + tool split): keep the
			// majority package by ignoring the stray file rather than
			// failing the whole load.
			continue
		}
		pkgName = f.Name.Name
		files = append(files, f)
	}
	return files, pkgName, nil
}

// The standard library is type-checked from source once per process and
// shared by every load, so each fixture that imports net does not pay for
// net again. Every Program positions its files in stdFset, the importer's
// FileSet, so positions in both stay resolvable. stdMu serializes loads:
// the source importer is not safe for concurrent use.
var (
	stdMu       sync.Mutex
	stdFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFset, "source", nil)
)

// typecheck runs go/types over every loaded package. Imports within the
// module resolve against the loaded ASTs; standard-library imports resolve
// through the stdlib source importer. Errors are collected per package, not
// fatal: analyzers fall back to syntactic matching where type information
// is missing.
func (p *Program) typecheck() {
	stdMu.Lock()
	defer stdMu.Unlock()
	m := &moduleImporter{
		prog: p,
		std:  stdImporter,
		done: make(map[string]*types.Package),
	}
	for _, pkg := range p.Packages {
		m.check(pkg)
	}
}

// moduleImporter resolves module-internal imports from the Program's own
// ASTs (memoized, cycle-guarded) and everything else via the stdlib source
// importer.
type moduleImporter struct {
	prog     *Program
	std      types.Importer
	done     map[string]*types.Package
	checking map[string]bool
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := m.done[path]; ok && tp != nil {
		return tp, nil
	}
	if path == m.prog.ModulePath || strings.HasPrefix(path, m.prog.ModulePath+"/") {
		pkg := m.prog.byPath[path]
		if pkg == nil {
			return nil, fmt.Errorf("lint: package %s not loaded", path)
		}
		return m.check(pkg)
	}
	return m.std.Import(path)
}

func (m *moduleImporter) check(pkg *Package) (*types.Package, error) {
	if tp, ok := m.done[pkg.Path]; ok {
		if tp == nil {
			return nil, fmt.Errorf("lint: %s previously failed to type-check", pkg.Path)
		}
		return tp, nil
	}
	if m.checking == nil {
		m.checking = make(map[string]bool)
	}
	if m.checking[pkg.Path] {
		return nil, fmt.Errorf("lint: import cycle through %s", pkg.Path)
	}
	m.checking[pkg.Path] = true
	defer delete(m.checking, pkg.Path)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    m,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tp, _ := conf.Check(pkg.Path, m.prog.Fset, pkg.Files, info)
	pkg.TypesPkg = tp
	pkg.TypesInfo = info
	m.done[pkg.Path] = tp
	if tp == nil {
		return nil, fmt.Errorf("lint: type-checking %s failed", pkg.Path)
	}
	return tp, nil
}
