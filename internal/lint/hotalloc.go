package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewHotAlloc enforces the zero-allocation contract on the decision path.
// A function annotated //janus:hotpath sits on the latency-critical
// admission route (wire encode/decode, bucket consume, lease routing,
// failpoint gates, trace sampling, metrics increments) —
// one stray heap allocation there costs more than the algorithm it feeds,
// and under load the resulting GC pressure is exactly the queue-and-pause
// tail-latency failure mode the ROADMAP's intake rewrite exists to avoid.
//
// The analyzer runs the dataflow layer (dataflow.go) over every annotated
// function and reports each statically-detected allocation site:
//
//   - escaping composite literals, new(T), and make
//   - string<->[]byte conversions (map-index and comparison uses exempt)
//   - interface boxing of non-pointer-shaped values, including the
//     fmt/errors formatting family
//   - certain-growth appends and map writes
//   - capturing closures, bound-method values, and go statements
//
// Calls from a hot function to a static module-internal callee are charged
// with the callee's own allocation sites (one level deep); annotating the
// callee //janus:hotpath moves the findings to the callee's definition.
// Dynamic calls (interface methods, func values) are not charged — that
// unsoundness is deliberate, documented, and backstopped by the
// AllocsPerRun pin tests, which fail on any allocation the heuristics
// miss.
//
// The only escape hatch is //lint:ignore hotalloc <reason> — used for cold
// paths inside hot functions (first-sight rule installation, trace-sampled
// branches) where the allocation is intentional and amortized.
func NewHotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "//janus:hotpath functions must be free of heap allocations",
	}
	a.RunModule = func(mp *ModulePass) {
		runHotAlloc(mp)
	}
	return a
}

func runHotAlloc(mp *ModulePass) {
	prog := mp.Prog
	idx := funcIndex(prog)

	isModuleFunc := func(fn *types.Func) bool {
		return fn.Pkg() != nil &&
			(fn.Pkg().Path() == prog.ModulePath || strings.HasPrefix(fn.Pkg().Path(), prog.ModulePath+"/"))
	}

	// calleeSummary memoizes the suppression-filtered allocation sites of
	// non-hot callees: a site the callee's author consciously suppressed
	// (with its reason next to the code) does not re-surface at call sites.
	summaries := make(map[types.Object][]allocSite)
	calleeSummary := func(obj types.Object, fi funcDeclInfo) []allocSite {
		if s, ok := summaries[obj]; ok {
			return s
		}
		var kept []allocSite
		for _, s := range allocSites(fi.pkg, fi.decl) {
			if !mp.Suppressed("hotalloc", s.pos) {
				kept = append(kept, s)
			}
		}
		summaries[obj] = kept
		return kept
	}

	for _, fi := range idx {
		if !hasAnnotation(fi.decl, annotationHotPath) {
			continue
		}
		fname := fi.decl.Name.Name
		if fi.decl.Recv != nil && len(fi.decl.Recv.List) > 0 {
			fname = exprString(fi.decl.Recv.List[0].Type) + "." + fname
		}

		// Direct allocation sites in the hot function itself.
		for _, s := range allocSites(fi.pkg, fi.decl) {
			mp.Reportf(s.pos, "%s in //janus:hotpath function %s", s.what, fname)
		}

		// One-level call summaries. Function literal interiors are skipped:
		// the closure allocation itself is already a direct site.
		info := fi.pkg.TypesInfo
		if info == nil {
			continue
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil || !isModuleFunc(fn) {
				return true
			}
			co, ok := idx[types.Object(fn)]
			if !ok {
				return true
			}
			if hasAnnotation(co.decl, annotationHotPath) {
				return true // checked at its own definition
			}
			sites := calleeSummary(types.Object(fn), co)
			if len(sites) == 0 {
				return true
			}
			first := prog.Fset.Position(sites[0].pos)
			mp.Reportf(call.Pos(), "call to %s allocates (%d site(s); first: %s at %s:%d); make it allocation-free and annotate it //janus:hotpath, or suppress with the cold-path rationale",
				funcDisplayName(fn), len(sites), sites[0].what, first.Filename, first.Line)
			return true
		})
	}
}
