package lint

import (
	"go/ast"
	"go/types"
)

// NewErrDrop flags silently discarded errors from Close, SetDeadline, and
// Write-family calls in the networking hot paths (errDropScope: transport,
// router, qosserver, lb, debugz, trace, client, h1). The UDP discipline is
// deliberately fire-and-forget at the protocol level — the router retries — but a
// *discarded Go error* is different: a failing WriteToUDP or Close that
// vanishes leaves no trace in the stats counters, and §V of the paper
// attributes exactly this class of silent drop to hard-to-diagnose accuracy
// drift.
//
// Rules:
//
//   - An expression statement discarding the result of x.Close(),
//     x.SetDeadline(...), x.SetReadDeadline(...), x.SetWriteDeadline(...),
//     x.Write(...), x.WriteTo(...), or x.WriteToUDP(...) is flagged when
//     the callee (per go/types, where available) returns an error.
//   - `defer x.Close()` is allowed: deferred cleanup close is the idiom and
//     its error has no receiver. Deferring the other methods is flagged.
//   - An explicit `_ = x.Close()` (or `_, _ = x.Write(p)`) is allowed — the
//     discard is visible and auditable, which is the point.
func NewErrDrop() *Analyzer {
	a := &Analyzer{
		Name:  "errdrop",
		Doc:   "no silently discarded Close/SetDeadline/Write errors in transport hot paths",
		Scope: errDropScope,
	}
	a.Run = func(p *Pass) {
		p.Preorder([]ast.Node{(*ast.ExprStmt)(nil), (*ast.DeferStmt)(nil)}, func(n ast.Node) {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if name, bad := dropsError(p.Pkg, call); bad {
						p.Reportf(call.Pos(), "error from %s is silently discarded; handle it, count it, or discard explicitly with `_ =`",
							name)
					}
				}
			case *ast.DeferStmt:
				name, bad := dropsError(p.Pkg, st.Call)
				if bad && !isCloseCall(st.Call) {
					p.Reportf(st.Call.Pos(), "deferred %s discards its error; only `defer x.Close()` is exempt",
						name)
				}
			}
		})
	}
	return a
}

// errDropScope lists the module-relative packages checked.
var errDropScope = []string{
	"internal/transport",
	"internal/router",
	"internal/qosserver",
	"internal/lb",
	"internal/debugz",
	"internal/trace",
	"internal/client",
	"internal/h1",
}

var errDropMethods = map[string]bool{
	"Close":            true,
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
	"Write":            true,
	"WriteTo":          true,
	"WriteToUDP":       true,
}

func isCloseCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Close"
}

// dropsError reports whether call is a watched method whose discarded
// result includes an error. With type information the signature decides;
// without it (fixture packages, partial checks) the method name alone
// decides.
func dropsError(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !errDropMethods[sel.Sel.Name] {
		return "", false
	}
	name := exprString(sel.X) + "." + sel.Sel.Name
	if pkg.TypesInfo != nil {
		if tv, ok := pkg.TypesInfo.Types[call.Fun]; ok && tv.Type != nil {
			sig, ok := tv.Type.(*types.Signature)
			if !ok {
				return name, false
			}
			res := sig.Results()
			for i := 0; i < res.Len(); i++ {
				if named, ok := res.At(i).Type().(*types.Named); ok &&
					named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
					return name, true
				}
			}
			return name, false
		}
	}
	return name, true
}
