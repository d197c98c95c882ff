package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewGoLeak requires every `go` statement in the daemon packages to have a
// provable stop path. A fire-and-forget goroutine that outlives its owner
// leaks across exactly the seams Janus keeps moving: epoch swaps, bucket
// handoffs, backend churn, and test teardown — and a leaked reader holding
// a socket keeps the old epoch's state alive indefinitely.
//
// The proof obligations, checked against the goroutine's statically
// resolved body (an inline function literal or a module function found
// through the call-graph index):
//
//   - receives on a channel (done/quit channel, ctx.Done(), or ranging
//     over a work channel that close() terminates), or
//   - joins a WaitGroup (calls a Done method), or
//   - is structurally bounded: contains no infinite `for {}` loop, so it
//     runs to completion on its own.
//
// Bodies that block forever in a socket read and rely on Close() to
// unblock them cannot be proven by this analysis — those sites carry a
// //lint:ignore goleak directive naming the Close that stops them, which
// is the audit trail the analyzer exists to force. Dynamically dispatched
// goroutine bodies (func values, interface methods) are flagged for the
// same reason.
func NewGoLeak() *Analyzer {
	a := &Analyzer{
		Name:  "goleak",
		Doc:   "every goroutine spawned in daemon packages has a provable stop path",
		Scope: daemonScope,
	}
	a.Run = func(p *Pass) {
		p.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
			g := n.(*ast.GoStmt)
			var body *ast.BlockStmt
			label := exprString(g.Call.Fun)
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
				label = "the function literal"
			default:
				if p.Pkg.TypesInfo != nil {
					if fn := staticCallee(p.Pkg.TypesInfo, g.Call); fn != nil {
						if fi, ok := funcIndex(p.Prog)[types.Object(fn)]; ok {
							body = fi.decl.Body
							label = funcDisplayName(fn)
						}
					}
				}
			}
			if body == nil {
				p.Reportf(g.Pos(), "goroutine body %s is not statically resolvable, so its stop path cannot be proven; spawn a module function or suppress with the shutdown story", label)
				return
			}
			if proof := stopPathProof(body); proof == "" {
				p.Reportf(g.Pos(), "goroutine %s has no provable stop path (no channel receive, no WaitGroup join, and an unbounded loop); plumb a quit channel or suppress with the shutdown story", label)
			}
		})
	}
	return a
}

// daemonScope lists the long-running packages whose goroutines and sockets
// the goleak and deadline analyzers police.
var daemonScope = []string{
	"internal/transport",
	"internal/router",
	"internal/qosserver",
	"internal/lease",
	"internal/membership",
	"internal/lb",
	"internal/debugz",
	"internal/client",
	"internal/h1",
}

// stopPathProof inspects a goroutine body and returns a short label for
// the stop path it found ("" when none). Nested function literals are
// separate units (their defers and loops run on the closure's schedule,
// not the goroutine's), except that spawning or calling them is the
// goroutine's own business, so only the literal interiors are skipped.
func stopPathProof(body *ast.BlockStmt) string {
	var (
		hasReceive  bool
		hasJoin     bool
		hasInfinite bool
	)
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				hasReceive = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel terminates when the sender closes it;
			// ranging over anything else is bounded by the operand. Either
			// way it is not an infinite loop.
			return true
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(node.Args) == 0 {
				// wg.Done() joins; ctx.Done() feeds a receive. Both are
				// stop-path evidence.
				hasJoin = true
			}
		case *ast.ForStmt:
			if node.Cond == nil {
				hasInfinite = true
			}
		}
		return true
	})
	switch {
	case hasReceive:
		return "channel receive"
	case hasJoin:
		return "waitgroup join"
	case !hasInfinite:
		return "bounded body"
	default:
		return ""
	}
}
