package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewNetIO guards socket I/O in the networking packages (netIOScope) with
// two rules.
//
// Dropped errors. The UDP discipline is deliberately fire-and-forget at the
// protocol level — the router retries — but a *discarded Go error* is
// different: a failing WriteToUDP or Close that vanishes leaves no trace in
// the stats counters, and §V of the paper attributes exactly this class of
// silent drop to hard-to-diagnose accuracy drift.
//
//   - An expression statement discarding the result of x.Close(),
//     x.SetDeadline(...), x.SetReadDeadline(...), x.SetWriteDeadline(...),
//     x.Write(...), x.WriteTo(...), or x.WriteToUDP(...) is flagged when
//     the callee (per go/types, where available) returns an error.
//   - `defer x.Close()` is allowed: deferred cleanup close is the idiom and
//     its error has no receiver. Deferring the other methods is flagged.
//   - An explicit `_ = x.Close()` (or `_, _ = x.Write(p)`) is allowed — the
//     discard is visible and auditable, which is the point.
//
// Deadlines. The transport's whole latency story (paper §III-B: 100 µs × 5
// retries) is built on *bounded* socket operations; one undeadlined blocking
// call in a shutdown or handoff path turns a dead peer into a hung daemon. A
// Read/Write-family call on a type from the net package (so bytes.Buffer and
// friends never trip it) is accepted when one of these holds:
//
//   - a Set*Deadline call on a net type appears earlier in the same function
//     (the textual-dominance approximation of "a deadline is armed before
//     the operation"; nested literals belong to the enclosing function);
//   - the enclosing function is annotated //janus:deadlined — the audited
//     escape for loops that block by design and are unblocked by Close()
//     (UDP accept-style readers), and for helpers whose callers armed the
//     deadline. The annotation says what bounds the call;
//   - a //lint:ignore netio directive with a reason covers the line.
func NewNetIO() *Analyzer {
	a := &Analyzer{
		Name:  "netio",
		Doc:   "no silently discarded Close/SetDeadline/Write errors, and net reads/writes run under a deadline or an audited helper",
		Scope: netIOScope,
	}
	a.Run = func(p *Pass) {
		p.Inspect(func(n ast.Node) {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, bad := dropsError(p.Pkg, call); bad {
						p.Reportf(call.Pos(), "error from %s is silently discarded; handle it, count it, or discard explicitly with `_ =`",
							name)
					}
				}
			case *ast.DeferStmt:
				if name, bad := dropsError(p.Pkg, n.Call); bad && !strings.HasSuffix(name, ".Close") {
					p.Reportf(n.Call.Pos(), "deferred %s discards its error; only `defer x.Close()` is exempt",
						name)
				}
			case *ast.FuncDecl:
				checkDeadlines(p, n)
			}
		})
	}
	return a
}

// Function annotations, written as directive comments in a FuncDecl's doc
// block: //janus:deadlined (read here) and //janus:hotpath (read by
// hotalloc).
const (
	annotationHotPath   = "janus:hotpath"
	annotationDeadlined = "janus:deadlined"
)

// hasAnnotation reports whether decl's doc block carries the directive.
// Trailing prose after the directive word is allowed.
func hasAnnotation(decl *ast.FuncDecl, annotation string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == annotation || strings.HasPrefix(text, annotation+" ") {
			return true
		}
	}
	return false
}

// netIOScope lists the module-relative packages checked: the daemons and
// the libraries they serve their sockets through.
var netIOScope = []string{
	"internal/transport",
	"internal/router",
	"internal/qosserver",
	"internal/membership",
	"internal/lb",
	"internal/debugz",
	"internal/trace",
	"internal/client",
	"internal/h1",
	"internal/tcp",
	"internal/minisql",
	"internal/memcache",
}

var errDropMethods = map[string]bool{
	"Close":              true,
	"SetDeadline":        true,
	"SetReadDeadline":    true,
	"SetWriteDeadline":   true,
	"Write":              true,
	"WriteTo":            true,
	"WriteToUDP":         true,
	"WriteToUDPAddrPort": true,
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

// checkDeadlines reports the watched net I/O calls in decl that no earlier
// deadline arm covers.
func checkDeadlines(p *Pass, decl *ast.FuncDecl) {
	if decl.Body == nil || p.Pkg.TypesInfo == nil || hasAnnotation(decl, annotationDeadlined) {
		return
	}
	var armedAt token.Pos = -1
	var calls []*ast.CallExpr
	ast.Inspect(decl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isNetConnRecv(p.Pkg.TypesInfo, sel.X) {
			return true
		}
		switch {
		case deadlineArmMethods[sel.Sel.Name]:
			if armedAt < 0 || call.Pos() < armedAt {
				armedAt = call.Pos()
			}
		case watchedConnIO[sel.Sel.Name]:
			calls = append(calls, call)
		}
		return true
	})
	for _, call := range calls {
		if armedAt >= 0 && armedAt < call.Pos() {
			continue
		}
		p.Reportf(call.Pos(), "%s runs without a deadline: no Set*Deadline precedes it in this function; arm one, or annotate the function //janus:deadlined documenting what bounds the call",
			exprString(call.Fun))
	}
}

var deadlineArmMethods = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

var watchedConnIO = map[string]bool{
	"Read":                true,
	"ReadFrom":            true,
	"ReadFromUDP":         true,
	"ReadFromUDPAddrPort": true,
	"ReadMsgUDP":          true,
	"Write":               true,
	"WriteTo":             true,
	"WriteToUDP":          true,
	"WriteToUDPAddrPort":  true,
	"WriteMsgUDP":         true,
}

// isNetConnRecv reports whether expr's type is declared in the net package
// (concrete *net.UDPConn and friends, or the net.Conn / net.PacketConn
// interfaces).
func isNetConnRecv(info *types.Info, expr ast.Expr) bool {
	t := info.TypeOf(expr)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "net"
}
