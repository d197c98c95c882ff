// Package lint implements janus-vet, a from-scratch static-analysis suite
// built only on the standard library's go/parser, go/ast, and go/types.
//
// Janus's correctness rests on invariants the Go compiler cannot see, and
// that no runtime check holds. Each gets one analyzer:
//
//   - simclock: the leaky-bucket credit model (paper §II-C eq. 1–2) is only
//     reproducible when simulation and experiment code derives every
//     timestamp from an injected clock and every random draw from a seeded
//     source — one raw time.Now() inside internal/des or internal/cloudsim
//     silently turns a reproducible experiment into a flaky one;
//   - netio: the UDP hot paths deliberately fire-and-forget, but a
//     *discarded* error from Close/SetDeadline/Write hides real socket
//     failures, and every socket read/write must run under a deadline or
//     through an audited helper (paper §III-B's bounded 100 µs × 5
//     exchange);
//   - hotalloc: the decision path (//janus:hotpath functions) must stay free
//     of heap allocations, proven by the dataflow layer in dataflow.go;
//   - wirecompat: the gob frames spoken by the HA replication and
//     bucket-handoff protocols (internal/qosserver/ha.go) and the binary
//     structs in internal/wire must stay wire-compatible across versions: a
//     reordered or retyped field is an invisible protocol break.
//
// See their files for the precise rules and the documented approximations.
// Properties a test can observe directly are held by tests instead: a
// duplicate or malformed failpoint name panics in failpoint.New, a daemon
// goroutine that outlives Close fails internal/cluster's
// TestCloseStopsEveryGoroutine, and mixed atomic/plain access fails the race
// detector.
//
// # Architecture
//
// Analyzers follow the golang.org/x/tools/go/analysis shape without the
// dependency: an Analyzer is a value with a Name, a Doc line, an optional
// package Scope, and a Run hook that registers node callbacks on a Pass.
// The driver walks every file of every in-scope package exactly once and
// dispatches each node to the callbacks registered for its concrete type,
// so adding an analyzer adds no walks. Whole-module analyses (wirecompat)
// use the RunModule hook instead.
//
// # Suppressions
//
// An intentional violation is silenced — explicitly and auditable — with a
// directive on the flagged line or the line directly above it:
//
//	//lint:ignore simclock fallback to wall clock when no Clock is injected
//	return time.Now()
//
// The directive names one analyzer (or a comma-separated list) and must
// carry a non-empty reason; a malformed directive is itself reported as a
// finding, and a directive naming the wrong analyzer suppresses nothing.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Pos locates the offending node.
	Pos token.Position
	// Message explains the violation and, where possible, the fix.
	Message string
}

// String formats the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one project-specific check. Exactly one of Run and RunModule
// is typically set: Run is invoked once per in-scope package and registers
// node callbacks on the shared walker; RunModule is invoked once per
// Program for whole-module analyses.
type Analyzer struct {
	// Name is the identifier used in output and //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Scope restricts Run to packages whose import path ends with one of
	// these module-relative paths ("internal/des"); nil means every package.
	Scope []string
	// Run registers callbacks for one package.
	Run func(*Pass)
	// RunModule analyzes the whole Program at once.
	RunModule func(*ModulePass)
}

// Pass carries one analyzer's view of one package. Run hooks call Preorder
// to register work; Run owns the walk.
type Pass struct {
	Prog *Program
	Pkg  *Package
	// File is the file owning the node currently being visited; it is only
	// valid inside Preorder callbacks.
	File *ast.File

	analyzer *Analyzer
	runner   *runner
	handlers []handler
}

type handler struct {
	// types is the set of concrete node types the callback wants; nil means
	// every node.
	types map[reflect.Type]bool
	fn    func(ast.Node)
}

// Preorder registers fn to be called for every node in the package whose
// concrete type matches one of the exemplars (e.g. (*ast.CallExpr)(nil)).
// An empty exemplar list matches every node. Nodes arrive in preorder,
// interleaved with every other analyzer's callbacks, during the single
// shared walk.
func (p *Pass) Preorder(exemplars []ast.Node, fn func(ast.Node)) {
	var tm map[reflect.Type]bool
	if len(exemplars) > 0 {
		tm = make(map[reflect.Type]bool, len(exemplars))
		for _, ex := range exemplars {
			tm[reflect.TypeOf(ex)] = true
		}
	}
	p.handlers = append(p.handlers, handler{types: tm, fn: fn})
}

// Reportf records a finding at pos attributed to the pass's analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.runner.report(p.analyzer.Name, p.Prog.Fset.Position(pos), format, args...)
}

// ModulePass carries one analyzer's view of the whole Program.
type ModulePass struct {
	Prog *Program

	analyzer *Analyzer
	runner   *runner
}

// Reportf records a finding at pos attributed to the pass's analyzer.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	mp.runner.report(mp.analyzer.Name, mp.Prog.Fset.Position(pos), format, args...)
}

// ReportAt is Reportf for positions that do not come from the FileSet (the
// wirecompat manifest file).
func (mp *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	mp.runner.report(mp.analyzer.Name, pos, format, args...)
}

// Suppressed reports whether a finding by the named analyzer at pos would
// be silenced by a //lint:ignore directive. hotalloc's one-level call
// summaries use it to honor suppressions inside the summarized body.
func (mp *ModulePass) Suppressed(analyzer string, pos token.Pos) bool {
	posn := mp.Prog.Fset.Position(pos)
	return mp.runner.sup.suppresses(Finding{Analyzer: analyzer, Pos: posn})
}

// runner is the shared per-Run state: the suppression table and the finding
// sink every pass reports into.
type runner struct {
	sup      suppressions
	findings []Finding
}

func (r *runner) report(analyzer string, pos token.Position, format string, args ...any) {
	r.findings = append(r.findings, Finding{Analyzer: analyzer, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns a fresh full suite. manifestPath overrides the
// wirecompat golden manifest location; "" uses DefaultManifestPath under
// the module root.
func Analyzers(manifestPath string) []*Analyzer {
	return []*Analyzer{
		NewSimClock(),
		NewNetIO(),
		NewHotAlloc(),
		NewWireCompat(manifestPath),
	}
}

// Run executes the analyzers over prog, drops suppressed findings, reports
// malformed suppression directives, and returns the remainder sorted by
// position.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup, bad := collectDirectives(prog, known)
	r := &runner{sup: sup, findings: bad}

	for _, pkg := range prog.Packages {
		var passes []*Pass
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Scope != nil && !inScope(pkg, a.Scope) {
				continue
			}
			p := &Pass{Prog: prog, Pkg: pkg, analyzer: a, runner: r}
			a.Run(p)
			if len(p.handlers) > 0 {
				passes = append(passes, p)
			}
		}
		if len(passes) == 0 {
			continue
		}
		for _, file := range pkg.Files {
			for _, p := range passes {
				p.File = file
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					return true
				}
				t := reflect.TypeOf(n)
				for _, p := range passes {
					for _, h := range p.handlers {
						if h.types == nil || h.types[t] {
							h.fn(n)
						}
					}
				}
				return true
			})
		}
	}

	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(&ModulePass{Prog: prog, analyzer: a, runner: r})
		}
	}

	out := make([]Finding, 0, len(r.findings))
	for _, f := range r.findings {
		if sup.suppresses(f) {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// suppressions maps filename -> line -> set of analyzer names silenced on
// that line.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) suppresses(f Finding) bool {
	lines := s[f.Pos.Filename]
	if lines == nil {
		return false
	}
	return lines[f.Pos.Line][f.Analyzer]
}

func (s suppressions) add(file string, line int, analyzer string) {
	lines := s[file]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		s[file] = lines
	}
	set := lines[line]
	if set == nil {
		set = make(map[string]bool)
		lines[line] = set
	}
	set[analyzer] = true
}

const ignorePrefix = "lint:ignore"

// collectDirectives scans every comment for //lint:ignore directives. A
// well-formed directive suppresses the named analyzers on its own line and
// on the line below (so it can trail the flagged statement or sit above
// it). Malformed directives are returned as findings so they cannot rot
// silently.
func collectDirectives(prog *Program, known map[string]bool) (suppressions, []Finding) {
	sup := make(suppressions)
	var bad []Finding
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSuffix(text, "*/")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Slash)
					rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
					names, reason, okSplit := strings.Cut(rest, " ")
					if names == "" || !okSplit || strings.TrimSpace(reason) == "" {
						bad = append(bad, Finding{
							Analyzer: "lint",
							Pos:      pos,
							Message:  "malformed //lint:ignore directive: want //lint:ignore <analyzer>[,<analyzer>...] <reason>",
						})
						continue
					}
					for _, name := range strings.Split(names, ",") {
						name = strings.TrimSpace(name)
						if !known[name] {
							bad = append(bad, Finding{
								Analyzer: "lint",
								Pos:      pos,
								Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", name),
							})
							continue
						}
						sup.add(pos.Filename, pos.Line, name)
						sup.add(pos.Filename, pos.Line+1, name)
					}
				}
			}
		}
	}
	return sup, bad
}

// inScope reports whether pkg's import path ends with one of the given
// module-relative package paths (e.g. "internal/des").
func inScope(pkg *Package, scope []string) bool {
	for _, s := range scope {
		if pkg.Path == s || strings.HasSuffix(pkg.Path, "/"+s) {
			return true
		}
	}
	return false
}

// importedPath resolves the package path a bare identifier refers to inside
// file, preferring type information and falling back to the file's import
// table. It returns "" when id is not a package name.
func importedPath(pkg *Package, file *ast.File, id *ast.Ident) string {
	if pkg.TypesInfo != nil {
		if obj, ok := pkg.TypesInfo.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return ""
		}
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// exprString renders an expression compactly ("s.mu", "t.shards[i].mu").
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return buf.String()
}
