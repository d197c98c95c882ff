package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// This file is the dataflow layer under the hotalloc analyzer: function
// annotations (netio reads //janus:deadlined too), a module-wide call-graph
// index, an intra-procedural escape heuristic, and the allocation-site
// taxonomy.
//
// The escape analysis is deliberately conservative and intra-procedural:
// a value escapes when it reaches a return statement, a call argument, a
// store outside function-local variables, a send, a goroutine, or a
// closure capture — mirroring (coarsely) the compiler's own rules. The
// call-graph summary is one level deep: a call from a hot function to a
// static module-internal callee is charged with the callee's own
// allocation sites, but the callee's calls are not chased further.
// Dynamic (interface/func-value) calls are not charged at all — that
// unsoundness is documented and backstopped by the AllocsPerRun pin tests
// (internal/qosserver/allocpin_test.go).

// Function annotations, written as directive comments in a FuncDecl's doc
// block:
//
//	//janus:hotpath
//	//janus:deadlined
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

// funcDeclInfo locates one top-level function declaration.
type funcDeclInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// funcIndex returns the module-wide map from types.Func objects to their
// declarations, building it on first use.
func funcIndex(prog *Program) map[types.Object]funcDeclInfo {
	if prog.funcs != nil {
		return prog.funcs
	}
	idx := make(map[types.Object]funcDeclInfo)
	for _, pkg := range prog.Packages {
		if pkg.TypesInfo == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj := pkg.TypesInfo.Defs[fd.Name]; obj != nil {
					idx[obj] = funcDeclInfo{pkg: pkg, decl: fd}
				}
			}
		}
	}
	prog.funcs = idx
	return idx
}

// staticCallee resolves the *types.Func a call statically dispatches to:
// a plain function, a method on a concrete receiver, or a method value.
// Interface-method and func-value calls return nil — they are dynamic.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if info.Selections != nil {
			if selInfo, ok := info.Selections[fun]; ok {
				// Concrete method: the selection resolves to a *types.Func
				// whose receiver is a named (non-interface) type.
				if fn, ok := selInfo.Obj().(*types.Func); ok {
					recv := fn.Type().(*types.Signature).Recv()
					if recv != nil && !types.IsInterface(recv.Type()) {
						return fn
					}
				}
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	if obj, ok := info.Uses[id]; ok {
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcScope provides parent links, type info, and escape queries for one
// function body.
type funcScope struct {
	pkg    *Package
	info   *types.Info
	body   *ast.BlockStmt
	parent map[ast.Node]ast.Node
	// results holds the objects of named result parameters: assigning to
	// one is a return, i.e. an escape.
	results map[types.Object]bool
}

func newFuncScope(pkg *Package, ftype *ast.FuncType, body *ast.BlockStmt) *funcScope {
	fs := &funcScope{
		pkg:     pkg,
		info:    pkg.TypesInfo,
		body:    body,
		parent:  make(map[ast.Node]ast.Node),
		results: make(map[types.Object]bool),
	}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			fs.parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	if ftype != nil && ftype.Results != nil && fs.info != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if obj := fs.info.Defs[name]; obj != nil {
					fs.results[obj] = true
				}
			}
		}
	}
	return fs
}

// insideFuncLit reports whether n sits inside a nested function literal.
func (fs *funcScope) insideFuncLit(n ast.Node) bool {
	for p := fs.parent[n]; p != nil; p = fs.parent[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// escapes reports whether the value of e may outlive the function frame.
func (fs *funcScope) escapes(e ast.Expr) bool {
	return fs.escapesFrom(e, make(map[types.Object]bool))
}

func (fs *funcScope) escapesFrom(e ast.Expr, visited map[types.Object]bool) bool {
	node := ast.Node(e)
	for {
		par := fs.parent[node]
		if par == nil {
			// Reached the body root without resolving the flow.
			return true
		}
		switch p := par.(type) {
		case *ast.ParenExpr, *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr,
			*ast.SliceExpr, *ast.TypeAssertExpr, *ast.KeyValueExpr, *ast.CompositeLit:
			node = par
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				node = par // address flows where &e flows
				continue
			}
			return false // <-ch, -x, !x: value consumed in place
		case *ast.BinaryExpr:
			// Comparisons and arithmetic consume the value; string concat
			// allocation is its own taxonomy entry.
			return false
		case *ast.CallExpr:
			if node == p.Fun {
				return false
			}
			tv, isConvOrType := fs.info.Types[p.Fun]
			if isConvOrType && tv.IsType() {
				node = par // conversion: the value flows through
				continue
			}
			if name, ok := builtinName(fs.info, p.Fun); ok {
				switch name {
				case "len", "cap", "delete", "close", "clear", "min", "max", "print", "println", "panic":
					return false
				case "append":
					if len(p.Args) > 0 && node == ast.Node(p.Args[0]) {
						node = par // the base slice flows into the result
						continue
					}
					return true // appended elements are retained
				default:
					return true // copy, new, make args: conservative
				}
			}
			return true // passed to a real call: callee may retain it
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if node != ast.Node(rhs) {
					continue
				}
				if len(p.Lhs) == len(p.Rhs) {
					return fs.lhsEscapes(p.Lhs[i], visited)
				}
				for _, lhs := range p.Lhs {
					if fs.lhsEscapes(lhs, visited) {
						return true
					}
				}
				return false
			}
			return false // node is (a subexpression of) an LHS
		case *ast.ValueSpec:
			for i, v := range p.Values {
				if node != ast.Node(v) {
					continue
				}
				if i < len(p.Names) {
					return fs.identEscapes(p.Names[i], visited)
				}
				for _, name := range p.Names {
					if fs.identEscapes(name, visited) {
						return true
					}
				}
			}
			return false
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return node == ast.Node(p.Value) // sent values are retained; the channel is not
		case *ast.GoStmt, *ast.DeferStmt:
			return true
		case *ast.RangeStmt:
			return false
		case *ast.IncDecStmt, *ast.ExprStmt, *ast.IfStmt, *ast.ForStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause,
			*ast.CommClause, *ast.BlockStmt, *ast.SelectStmt, *ast.LabeledStmt:
			return false
		default:
			return true // unmodeled flow: conservative
		}
	}
}

// lhsEscapes decides whether storing into lhs lets the stored value outlive
// the frame: blank and provably-local variables do not, everything else
// (fields, elements, globals, captured or named-result vars) does.
func (fs *funcScope) lhsEscapes(lhs ast.Expr, visited map[types.Object]bool) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return true // field, index, or deref store
	}
	if id.Name == "_" {
		return false
	}
	return fs.identEscapes(id, visited)
}

// identEscapes resolves id to its variable and checks whether any use of
// that variable escapes.
func (fs *funcScope) identEscapes(id *ast.Ident, visited map[types.Object]bool) bool {
	if fs.info == nil {
		return true
	}
	obj := fs.info.Defs[id]
	if obj == nil {
		obj = fs.info.Uses[id]
	}
	if obj == nil {
		return true
	}
	return fs.varEscapes(obj, visited)
}

// varEscapes reports whether the local variable obj escapes: it is a named
// result, is declared outside this body, is captured by a function literal,
// or has a use whose flow escapes.
func (fs *funcScope) varEscapes(obj types.Object, visited map[types.Object]bool) bool {
	if visited[obj] {
		return false // already on the worklist; cycles stay local
	}
	visited[obj] = true
	if fs.results[obj] {
		return true
	}
	if obj.Pos() < fs.body.Pos() || obj.Pos() > fs.body.End() {
		return true // parameter or outer variable: stores to it outlive us
	}
	escaped := false
	ast.Inspect(fs.body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fs.info.Uses[id] != obj {
			return true
		}
		if fs.insideFuncLit(id) {
			escaped = true // captured by a closure
			return false
		}
		// A plain store to the variable itself is not a use of its value.
		if as, ok := fs.parent[id].(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if lhs == ast.Node(id) {
					return true
				}
			}
		}
		if fs.escapesFrom(id, visited) {
			escaped = true
			return false
		}
		return true
	})
	return escaped
}

// allocSite is one statically-detected heap allocation.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocSites runs the taxonomy over decl's body and returns every site that
// may allocate. Nested function literals are charged as a single closure
// site (when they capture) and their interiors are skipped: a literal's body
// only runs if called, and calling it from a hot path is flagged as the
// closure allocation itself.
func allocSites(pkg *Package, decl *ast.FuncDecl) []allocSite {
	if decl.Body == nil || pkg.TypesInfo == nil {
		return nil
	}
	fs := newFuncScope(pkg, decl.Type, decl.Body)
	info := pkg.TypesInfo
	var sites []allocSite
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos: pos, what: fmt.Sprintf(format, args...)})
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(fs, node) {
				add(node.Pos(), "function literal captures variables: the closure is heap-allocated")
			}
			return false // interior only runs when the closure is called

		case *ast.CompositeLit:
			if nestedInComposite(fs, node) {
				return true // the outermost literal is the site
			}
			t := info.TypeOf(node)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				add(node.Pos(), "map literal allocates")
			case *types.Slice:
				if fs.escapes(node) {
					add(node.Pos(), "escaping slice literal allocates")
				}
			default: // struct or array value
				if par, ok := fs.parent[node].(*ast.UnaryExpr); ok && par.Op == token.AND {
					if fs.escapes(par) {
						add(par.Pos(), "escaping composite literal &%s{...} allocates", types.TypeString(t, types.RelativeTo(pkg.TypesPkg)))
					}
				}
			}

		case *ast.CallExpr:
			checkCallAlloc(fs, info, node, add)

		case *ast.BinaryExpr:
			if node.Op == token.ADD && isNonConstString(info, node) {
				if par, ok := fs.parent[node].(*ast.BinaryExpr); !ok || par.Op != token.ADD {
					add(node.Pos(), "non-constant string concatenation allocates")
				}
			}

		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if bt := info.TypeOf(idx.X); bt != nil {
						if _, isMap := bt.Underlying().(*types.Map); isMap {
							add(idx.Pos(), "map assignment may grow the map")
						}
					}
				}
			}
			checkAssignBoxing(fs, info, node, add)

		case *ast.ReturnStmt:
			checkReturnBoxing(fs, info, decl, node, add)

		case *ast.GoStmt:
			add(node.Pos(), "go statement allocates a goroutine")

		case *ast.SelectorExpr:
			if sel, ok := info.Selections[node]; ok && sel.Kind() == types.MethodVal {
				if par, isCall := fs.parent[node].(*ast.CallExpr); !isCall || par.Fun != ast.Expr(node) {
					add(node.Pos(), "method value %s allocates a bound-method closure", node.Sel.Name)
				}
			}
		}
		return true
	})
	return sites
}

// checkCallAlloc covers the call-shaped taxonomy entries: new/make/append,
// string conversions, formatting calls, and interface-boxing arguments.
func checkCallAlloc(fs *funcScope, info *types.Info, call *ast.CallExpr, add func(token.Pos, string, ...any)) {
	// Conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		if from != nil && isStringBytesConv(to, from) && !conversionExempt(fs, call) {
			add(call.Pos(), "%s conversion copies and allocates (exempt as a map index or in a comparison)", conversionLabel(to, from))
		}
		return
	}

	// Builtins.
	if name, ok := builtinName(info, call.Fun); ok {
		switch name {
		case "new":
			if fs.escapes(call) {
				add(call.Pos(), "escaping new(T) allocates")
			}
		case "make":
			add(call.Pos(), "make allocates")
		case "append":
			if len(call.Args) > 0 && certainGrowthBase(fs, call.Args[0]) {
				add(call.Pos(), "append to a provably empty local slice always grows")
			}
		}
		return
	}

	// Formatting / error construction: both the internal buffers and the
	// ...any boxing allocate.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			switch importedPath(fs.pkg, fileOf(fs.pkg, call.Pos()), id) {
			case "fmt":
				add(call.Pos(), "fmt.%s formats and allocates", sel.Sel.Name)
				return
			case "errors":
				add(call.Pos(), "errors.%s allocates a new error value", sel.Sel.Name)
				return
			}
		}
	}

	// Interface boxing of arguments.
	sigT, ok := info.Types[call.Fun]
	if !ok || sigT.Type == nil {
		return
	}
	sig, ok := sigT.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-arg boxing
			}
			paramT = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramT = params.At(i).Type()
		default:
			continue
		}
		argT := info.TypeOf(arg)
		if argT == nil || !types.IsInterface(paramT) || types.IsInterface(argT) {
			continue
		}
		if boxingAllocates(argT) {
			add(arg.Pos(), "argument boxes %s into interface %s", argT.String(), paramT.String())
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		if _, isIface := params.At(params.Len() - 1).Type().(*types.Slice).Elem().Underlying().(*types.Interface); isIface {
			add(call.Pos(), "variadic interface call allocates its argument slice")
		}
	}
}

// checkAssignBoxing flags concrete-to-interface stores in assignments.
func checkAssignBoxing(fs *funcScope, info *types.Info, as *ast.AssignStmt, add func(token.Pos, string, ...any)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.TypeOf(lhs)
		rt := info.TypeOf(as.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if types.IsInterface(lt) && !types.IsInterface(rt) && boxingAllocates(rt) {
			add(as.Rhs[i].Pos(), "assignment boxes %s into interface %s", rt.String(), lt.String())
		}
	}
}

// checkReturnBoxing flags concrete-to-interface boxing in return values.
func checkReturnBoxing(fs *funcScope, info *types.Info, decl *ast.FuncDecl, ret *ast.ReturnStmt, add func(token.Pos, string, ...any)) {
	obj := info.Defs[decl.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		rt := info.TypeOf(res)
		want := sig.Results().At(i).Type()
		if rt == nil {
			continue
		}
		if types.IsInterface(want) && !types.IsInterface(rt) && boxingAllocates(rt) {
			add(res.Pos(), "return boxes %s into interface %s", rt.String(), want.String())
		}
	}
}

// capturesOuter reports whether lit references a variable declared outside
// itself (which forces the closure onto the heap).
func capturesOuter(fs *funcScope, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := fs.info.Uses[id]
		if obj == nil {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared before the literal but inside the enclosing body (or a
		// parameter): that's a capture. Package-level vars are not captures.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if obj.Pos() < lit.Pos() {
			captured = true
			return false
		}
		return true
	})
	return captured
}

// nestedInComposite reports whether lit is an element of an enclosing
// composite literal (climbing through key-value pairs and address-of).
func nestedInComposite(fs *funcScope, lit *ast.CompositeLit) bool {
	for p := fs.parent[lit]; p != nil; p = fs.parent[p] {
		switch p.(type) {
		case *ast.KeyValueExpr, *ast.UnaryExpr:
			continue
		case *ast.CompositeLit:
			return true
		default:
			return false
		}
	}
	return false
}

// certainGrowthBase reports whether base is a slice that provably has zero
// capacity at the append: a nil/empty local, an empty literal, or a
// zero-capacity make. Appends onto parameters, fields, or capacity-carrying
// locals are allowed — that is the amortized caller-owned-buffer contract,
// pinned at runtime by the AllocsPerRun tests.
func certainGrowthBase(fs *funcScope, base ast.Expr) bool {
	switch b := ast.Unparen(base).(type) {
	case *ast.CompositeLit:
		return true // append([]T{...}, ...) grows immediately
	case *ast.Ident:
		if b.Name == "nil" {
			return true
		}
		obj := fs.info.Uses[b]
		if obj == nil {
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		if obj.Pos() < fs.body.Pos() || obj.Pos() > fs.body.End() {
			return false // parameter or outer: capacity unknown, allowed
		}
		init, found := localVarInit(fs, obj)
		if !found {
			return false
		}
		if init == nil {
			return true // var x []T — nil slice
		}
		switch ie := ast.Unparen(init).(type) {
		case *ast.Ident:
			return ie.Name == "nil"
		case *ast.CompositeLit:
			return len(ie.Elts) == 0
		case *ast.CallExpr:
			if name, ok := builtinName(fs.info, ie.Fun); ok && name == "make" {
				capArg := 1 // len doubles as cap when cap is absent
				if len(ie.Args) >= 3 {
					capArg = 2
				}
				if len(ie.Args) > capArg {
					if tv, ok := fs.info.Types[ie.Args[capArg]]; ok && tv.Value != nil {
						if c, exact := constant.Int64Val(tv.Value); exact && c == 0 {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// localVarInit finds the initializer expression of a body-local variable:
// nil for a bare `var x []T`, the RHS for `x := expr` / `var x = expr`.
// found is false when no defining statement could be located.
func localVarInit(fs *funcScope, obj types.Object) (init ast.Expr, found bool) {
	ast.Inspect(fs.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch d := n.(type) {
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range d.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || fs.info.Defs[id] != obj {
					continue
				}
				if len(d.Rhs) == len(d.Lhs) {
					init, found = d.Rhs[i], true
				} else {
					found = true // multi-value RHS: capacity unknown
					init = d.Rhs[0]
				}
				return false
			}
		case *ast.ValueSpec:
			for i, name := range d.Names {
				if fs.info.Defs[name] != obj {
					continue
				}
				found = true
				if i < len(d.Values) {
					init = d.Values[i]
				}
				return false
			}
		}
		return true
	})
	return init, found
}

// conversionExempt recognizes the compiler's no-copy special cases for
// string<->[]byte conversions: use as a map index and use as a comparison
// operand (plus switch tags and range operands, which lower to the same).
func conversionExempt(fs *funcScope, conv *ast.CallExpr) bool {
	par := fs.parent[conv]
	for {
		if p, ok := par.(*ast.ParenExpr); ok {
			_ = p
			par = fs.parent[par]
			continue
		}
		break
	}
	switch p := par.(type) {
	case *ast.IndexExpr:
		if p.Index == ast.Expr(conv) {
			if bt := fs.info.TypeOf(p.X); bt != nil {
				if _, isMap := bt.Underlying().(*types.Map); isMap {
					return true
				}
			}
		}
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return true
		}
	case *ast.SwitchStmt:
		return p.Tag == ast.Expr(conv)
	case *ast.RangeStmt:
		return p.X == ast.Expr(conv)
	}
	return false
}

func conversionLabel(to, from types.Type) string {
	if isString(to) {
		return "[]byte->string"
	}
	if isString(from) {
		return "string->[]byte"
	}
	return "string/bytes"
}

func isStringBytesConv(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// boxingAllocates reports whether converting a value of concrete type t to
// an interface heap-allocates. Pointer-shaped types (pointers, channels,
// maps, funcs, unsafe.Pointer) store directly in the interface word.
func boxingAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UnsafePointer, types.UntypedNil:
			return false
		}
		return true // strings, floats, and most ints need a heap copy
	default:
		return true // structs, arrays, slices
	}
}

// isNonConstString reports whether e is a string-typed expression without a
// constant value.
func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isString(tv.Type) && tv.Value == nil
}

// builtinName resolves fun to a builtin's name ("make", "append", ...).
func builtinName(info *types.Info, fun ast.Expr) (string, bool) {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if obj, ok := info.Uses[id]; ok {
		if b, ok := obj.(*types.Builtin); ok {
			return b.Name(), true
		}
		return "", false
	}
	return "", false
}

// fileOf returns the package file containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// funcDisplayName renders a readable name for fn ("(*Table).Route",
// "EncodeRequest").
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		return fmt.Sprintf("(%s).%s", types.TypeString(recv, func(p *types.Package) string { return "" }), fn.Name())
	}
	return fn.Name()
}
