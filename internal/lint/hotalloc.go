package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// NewHotAlloc enforces the zero-allocation contract on the decision path. A
// function annotated //janus:hotpath sits on the admission route (wire
// encode/decode, bucket consume, failpoint gates, trace
// sampling, metrics increments), where one stray heap allocation costs more
// than the algorithm it feeds and, under load, becomes GC pauses in the
// tail latency.
//
// The Go compiler decides what escapes. hotalloc compiles every module
// package that holds a hot function or a module callee of one, once, with
// the compiler's optimization log on, and reports each heap escape the log
// places inside a hot function, including escapes in code inlined there.
// Three allocations are not escapes, so syntactic rules find them: go
// statements, map assignments, and appends onto a provably empty local
// slice.
//
// A static call (resolved with go/types) from a hot function to a non-hot
// module function is charged at the call when the callee has an
// unsuppressed site of its own, unless the call already reports sites
// inlined from it; annotating the callee //janus:hotpath moves the check to
// its definition. Dynamic calls are not charged: the AllocsPerRun pin tests
// backstop them.
//
// //lint:ignore hotalloc <reason> marks a cold path inside a hot function
// (first-sight rule installation, a trace-sampled branch). It covers an
// inlined site when it covers any line of the site's inline chain: the call
// in the hot function or the allocation in the callee.
//
// hotalloc fails closed: a compile that cannot run or fails, or a compiled
// package the log says nothing about, is a finding.
func NewHotAlloc() *Analyzer {
	return &Analyzer{
		Name:      "hotalloc",
		Doc:       "//janus:hotpath functions must be free of heap allocations",
		RunModule: runHotAlloc,
	}
}

// goCommand is the go command hotalloc compiles with.
var goCommand = "go"

// funcDecl is one top-level function declaration with a body, spanning
// lines from to to of file.
type funcDecl struct {
	pkg      *Package
	decl     *ast.FuncDecl
	name     string
	file     string
	from, to int
}

func (fd *funcDecl) contains(p token.Position) bool {
	return p.Filename == fd.file && fd.from <= p.Line && p.Line <= fd.to
}

// allocSite is one heap allocation at pos. For code the compiler inlined
// there, inl holds the positions inside the inlined bodies, outermost first.
type allocSite struct {
	pos  token.Position
	inl  []token.Position
	what string
}

func (s allocSite) chain() []token.Position {
	return append([]token.Position{s.pos}, s.inl...)
}

// hotCall is a static call from a hot function to a non-hot module function.
type hotCall struct {
	pos    token.Position
	callee *funcDecl
}

func runHotAlloc(mp *ModulePass) {
	prog := mp.Prog
	funcs := indexFuncs(prog)
	calls := make(map[*funcDecl][]hotCall)
	compile := make(map[*Package]bool)
	for _, fd := range funcs {
		if !hasAnnotation(fd.decl, annotationHotPath) {
			continue
		}
		calls[fd] = nil
		compile[fd.pkg] = true
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(fd.pkg.TypesInfo, call)
			if fn == nil {
				return true
			}
			if callee := funcs[fn.Origin()]; callee != nil && !hasAnnotation(callee.decl, annotationHotPath) {
				calls[fd] = append(calls[fd], hotCall{pos: prog.Fset.Position(call.Lparen), callee: callee})
				compile[callee.pkg] = true
			}
			return true
		})
	}
	if len(compile) == 0 {
		return
	}
	var pkgs []*Package
	for pkg := range compile {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	escapes, logged, err := compilerSites(prog, pkgs)
	if err != nil {
		mp.Reportf(pkgs[0].Files[0].Name.Pos(), "the compiler's escape analysis did not run, so no //janus:hotpath function is checked: %v", err)
		return
	}
	for _, pkg := range pkgs {
		if !logged[pkg.Dir] {
			mp.Reportf(pkg.Files[0].Name.Pos(), "the compiler logged nothing for %s, so its functions are unchecked", pkg.Path)
		}
	}

	sitesIn := func(fd *funcDecl) []allocSite {
		sites := syntacticSites(fd)
		for _, s := range escapes {
			if fd.contains(s.pos) {
				sites = append(sites, s)
			}
		}
		return sites
	}
	suppressed := func(s allocSite) bool {
		for _, p := range s.chain() {
			if mp.Suppressed("hotalloc", p) {
				return true
			}
		}
		return false
	}
	for fd, fdCalls := range calls {
		sites := sitesIn(fd)
		for _, s := range sites {
			if suppressed(s) {
				continue
			}
			via := ""
			if len(s.inl) > 0 {
				in := s.inl[len(s.inl)-1]
				via = fmt.Sprintf(" (inlined from %s:%d)", filepath.Base(in.Filename), in.Line)
			}
			mp.ReportAt(s.pos, "%s in //janus:hotpath function %s%s", s.what, fd.name, via)
		}
		for _, c := range fdCalls {
			if inlinedAt(sites, c) {
				continue // the inlined body's own sites are reported above
			}
			// A callee site its author suppressed, with the reason beside
			// it, does not resurface at call sites.
			var kept []allocSite
			for _, s := range sitesIn(c.callee) {
				if !suppressed(s) {
					kept = append(kept, s)
				}
			}
			if len(kept) > 0 {
				first := kept[0].pos
				mp.ReportAt(c.pos, "call to %s allocates (%d site(s); first: %s at %s:%d); make it allocation-free and annotate it //janus:hotpath, or suppress with the cold-path rationale",
					c.callee.name, len(kept), kept[0].what, filepath.Base(first.Filename), first.Line)
			}
		}
	}
}

// inlinedAt reports whether one of sites came from c's callee inlined at c.
func inlinedAt(sites []allocSite, c hotCall) bool {
	for _, s := range sites {
		if s.pos.Filename != c.pos.Filename || s.pos.Line != c.pos.Line {
			continue
		}
		for _, p := range s.inl {
			if c.callee.contains(p) {
				return true
			}
		}
	}
	return false
}

// indexFuncs maps every module function with a body to its declaration.
func indexFuncs(prog *Program) map[types.Object]*funcDecl {
	idx := make(map[types.Object]*funcDecl)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil || pkg.TypesInfo.Defs[decl.Name] == nil {
					continue
				}
				name := decl.Name.Name
				if decl.Recv != nil && len(decl.Recv.List) > 0 {
					name = exprString(decl.Recv.List[0].Type) + "." + name
				}
				from, to := prog.Fset.Position(decl.Pos()), prog.Fset.Position(decl.End())
				idx[pkg.TypesInfo.Defs[decl.Name]] = &funcDecl{pkg: pkg, decl: decl, name: name, file: from.Filename, from: from.Line, to: to.Line}
			}
		}
	}
	return idx
}

// staticCallee resolves the function a call statically dispatches to: a
// plain function, a method on a concrete receiver, or a method value.
// Interface-method and func-value calls return nil — they are dynamic.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || fn.Type().(*types.Signature).Recv() != nil && types.IsInterface(fn.Type().(*types.Signature).Recv().Type()) {
		return nil
	}
	return fn
}

// compilerSites builds pkgs once with the compiler's optimization log
// (-json) on for each, and returns every heap escape the log records plus
// the set of package directories it logged anything for. The log directory is new
// on every run, so the build's cache key is too: the compiler runs and
// writes the log, where a cache hit would write none.
func compilerSites(prog *Program, pkgs []*Package) ([]allocSite, map[string]bool, error) {
	dir, err := os.MkdirTemp("", "janus-vet-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	cwd := prog.ModuleRoot
	if cwd == "" {
		cwd = pkgs[0].Dir
	}
	args := []string{"build", "-o", os.DevNull}
	var targets []string
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(cwd, pkg.Dir)
		if err != nil {
			return nil, nil, err
		}
		target := "./" + filepath.ToSlash(rel)
		args = append(args, "-gcflags="+target+"=-json=0,"+dir)
		targets = append(targets, target)
	}
	cmd := exec.Command(goCommand, append(args, targets...)...)
	cmd.Dir = cwd
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, nil, fmt.Errorf("%s build: %v\n%s", goCommand, err, bytes.TrimSpace(out))
	}

	var sites []allocSite
	seen := make(map[string]bool)
	logged := make(map[string]bool)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		var header struct{ File string }
		if err := dec.Decode(&header); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		logged[filepath.Dir(header.File)] = true
		for {
			var e logEntry
			if err := dec.Decode(&e); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			// Every escape is logged at least once with its message, and
			// once more without.
			if e.Code != "escape" && e.Code != "escapes" || e.Message == "" {
				continue
			}
			s := allocSite{pos: e.Range.position(header.File), what: e.Message}
			for _, r := range e.RelatedInformation {
				if r.Message != "inlineLoc" {
					break // the escape-flow explanation follows the inline chain
				}
				u, err := url.Parse(r.Location.URI)
				if err != nil {
					return fmt.Errorf("%s: %w", path, err)
				}
				s.inl = append(s.inl, r.Location.Range.position(u.Path))
			}
			if key := fmt.Sprint(s.chain()); !seen[key] {
				seen[key] = true
				sites = append(sites, s)
			}
		}
	})
	return sites, logged, err
}

// logEntry is one diagnostic of the compiler's optimization log, in the LSP
// Diagnostic shape cmd/compile/internal/logopt documents.
type logEntry struct {
	Range              logRange
	Code, Message      string
	RelatedInformation []struct {
		Location struct {
			URI   string
			Range logRange
		}
		Message string
	}
}

type logRange struct {
	Start struct{ Line, Character int }
}

func (r logRange) position(file string) token.Position {
	return token.Position{Filename: file, Line: r.Start.Line, Column: r.Start.Character}
}

// syntacticSites finds the allocations escape analysis does not log: a go
// statement allocates a goroutine, a map assignment may grow the map, and
// an append onto a provably empty local slice always grows it.
func syntacticSites(fd *funcDecl) []allocSite {
	info := fd.pkg.TypesInfo
	var sites []allocSite
	add := func(n ast.Node, what string) {
		sites = append(sites, allocSite{pos: fd.pkg.Fset.Position(n.Pos()), what: what})
	}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			add(n, "go statement allocates a goroutine")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(info.TypeOf(ix.X)) {
					add(ix, "map assignment may grow the map")
				}
			}
		case *ast.CallExpr:
			if isBuiltin(info, n.Fun, "append") && emptyLocal(info, fd.decl.Body, n.Args[0]) {
				add(n, "append to a provably empty local slice always grows")
			}
		}
		return true
	})
	return sites
}

// emptyLocal reports whether e is a variable local to body and declared
// with no value, nil, an empty slice literal, or a make of constant zero
// capacity. Parameters, fields and other locals may carry capacity:
// appending into a caller-owned buffer is the amortized contract the
// AllocsPerRun pins hold.
func emptyLocal(info *types.Info, body *ast.BlockStmt, e ast.Expr) bool {
	id, _ := ast.Unparen(e).(*ast.Ident)
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pos() < body.Pos() || v.Pos() > body.End() {
		return false
	}
	empty := false
	ast.Inspect(body, func(n ast.Node) bool {
		var names []*ast.Ident
		var values []ast.Expr
		switch d := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range d.Lhs {
				id, _ := lhs.(*ast.Ident)
				names = append(names, id)
			}
			values = d.Rhs
		case *ast.ValueSpec:
			names, values = d.Names, d.Values
		}
		for i, id := range names {
			if id != nil && info.Defs[id] == v {
				empty = len(values) == 0 || len(values) == len(names) && emptyValue(info, values[i])
			}
		}
		return true
	})
	return empty
}

func emptyValue(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, isNil := info.Uses[e].(*types.Nil)
		return isNil
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if !isBuiltin(info, e.Fun, "make") || len(e.Args) < 2 {
			return false
		}
		c := info.Types[e.Args[len(e.Args)-1]].Value // the capacity, else the length
		return c != nil && constant.Sign(c) == 0
	}
	return false
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, _ := ast.Unparen(fun).(*ast.Ident)
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
