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
//     of heap allocations, as the compiler's escape analysis reports them.
//
// See their files for the precise rules and the documented approximations.
// Properties a test can observe directly are held by tests instead: a
// duplicate or malformed failpoint name panics in failpoint.New, a daemon
// goroutine that outlives Close fails internal/cluster's
// TestCloseStopsEveryGoroutine, mixed atomic/plain access fails the race
// detector, and a changed wire encoding fails the golden-bytes tests
// (internal/wire's TestFrameGolden, internal/qosserver's
// TestPeerFrameGolden).
//
// # Architecture
//
// Analyzers follow the golang.org/x/tools/go/analysis shape without the
// dependency: an Analyzer is a value with a Name, a Doc line, an optional
// package Scope, and a Run hook called once per in-scope package with a
// Pass that walks it. A whole-module analysis (hotalloc) uses the RunModule
// hook instead.
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
// finding, and a directive naming the wrong analyzer suppresses nothing. A
// directive that suppresses no finding of its analyzer, in a package the
// analyzer checks, is reported too.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
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
// is typically set: Run is invoked once per in-scope package; RunModule is
// invoked once per Program for whole-module analyses.
type Analyzer struct {
	// Name is the identifier used in output and //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Scope restricts Run to packages whose import path ends with one of
	// these module-relative paths ("internal/des"); nil means every package.
	Scope []string
	// Run analyzes one package.
	Run func(*Pass)
	// RunModule analyzes the whole Program at once.
	RunModule func(*ModulePass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Prog *Program
	Pkg  *Package
	// File is the file owning the node currently being visited; it is only
	// valid inside Inspect callbacks.
	File *ast.File

	analyzer *Analyzer
	runner   *runner
}

// Inspect calls fn for every node of the package's files, in preorder.
func (p *Pass) Inspect(fn func(ast.Node)) {
	for _, file := range p.Pkg.Files {
		p.File = file
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
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
// compiler's escape log).
func (mp *ModulePass) ReportAt(pos token.Position, format string, args ...any) {
	mp.runner.report(mp.analyzer.Name, pos, format, args...)
}

// Suppressed reports whether a finding by the named analyzer at pos would
// be silenced by a //lint:ignore directive, and if so counts the directive
// as used. hotalloc uses it for sites it does not report itself: inside a
// callee it charges at the call, and along an inlined site's chain.
func (mp *ModulePass) Suppressed(analyzer string, pos token.Position) bool {
	return mp.runner.sup.suppresses(Finding{Analyzer: analyzer, Pos: pos})
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

// Analyzers returns a fresh full suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{NewSimClock(), NewNetIO(), NewHotAlloc()}
}

// Run executes the analyzers over prog, drops suppressed findings, reports
// malformed and unused suppression directives, and returns the remainder
// sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	known := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = a
	}
	sup, directives, bad := collectDirectives(prog, known)
	r := &runner{sup: sup, findings: bad}

	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			if a.Run != nil && (a.Scope == nil || inScope(pkg, a.Scope)) {
				a.Run(&Pass{Prog: prog, Pkg: pkg, analyzer: a, runner: r})
			}
		}
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
	for _, d := range directives {
		if !d.used {
			out = append(out, Finding{
				Analyzer: "lint",
				Pos:      d.pos,
				Message:  fmt.Sprintf("//lint:ignore %s suppresses no %s finding; delete it", d.analyzer, d.analyzer),
			})
		}
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

// directive is one analyzer named by one //lint:ignore comment.
type directive struct {
	pos      token.Position
	analyzer string
	used     bool
}

// suppressions maps a source line to the directives covering it.
type suppressions map[lineKey][]*directive

type lineKey struct {
	file string
	line int
}

// suppresses reports whether a directive covers f, and marks it used.
func (s suppressions) suppresses(f Finding) bool {
	for _, d := range s[lineKey{f.Pos.Filename, f.Pos.Line}] {
		if d.analyzer == f.Analyzer {
			d.used = true
			return true
		}
	}
	return false
}

const ignorePrefix = "lint:ignore"

// collectDirectives scans every comment for //lint:ignore directives. A
// well-formed directive suppresses the named analyzers on its own line and
// on the line below (so it can trail the flagged statement or sit above
// it). Malformed directives are returned as findings, and Run reports the
// in-scope ones that suppress nothing, so neither can rot silently.
func collectDirectives(prog *Program, known map[string]*Analyzer) (suppressions, []*directive, []Finding) {
	sup := make(suppressions)
	var all []*directive
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
						a := known[name]
						if a == nil {
							bad = append(bad, Finding{
								Analyzer: "lint",
								Pos:      pos,
								Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", name),
							})
							continue
						}
						d := &directive{pos: pos, analyzer: name}
						// Outside its analyzer's scope a directive is
						// never consulted, so it is not checked for use.
						if a.Scope == nil || inScope(pkg, a.Scope) {
							all = append(all, d)
						}
						for _, line := range []int{pos.Line, pos.Line + 1} {
							k := lineKey{pos.Filename, line}
							sup[k] = append(sup[k], d)
						}
					}
				}
			}
		}
	}
	return sup, all, bad
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
