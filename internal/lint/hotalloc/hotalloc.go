// Package hotalloc flags allocation sites in hot-path functions — the
// per-record code the streaming engine's throughput budget lives in
// (BENCH_pr4/pr6 measured the engine allocation-bound at ~5 heap
// allocations per record before PR 7's burn-down). A function is hot
// when its doc comment carries the //hot:path directive or its
// fully-qualified name is listed in HotSet.
//
// Inside a hot function the analyzer reports:
//
//   - string <-> []byte/[]rune conversions (each copies),
//   - calls into package fmt (interface boxing plus formatting state),
//   - make of a map with no size hint, and make of a zero-length slice
//     with no capacity,
//   - append inside a loop to storage with no reaching presized
//     definition (growth reallocation on the hot path),
//   - interface boxing: a concrete non-pointer value passed to an
//     interface-typed parameter or assigned to an interface variable
//     (the cost container/heap imposed on the session streamer),
//   - function literals (every closure is a heap object once its
//     context escapes).
//
// Error exits are cold by definition: a return statement constructing
// its error (fmt.Errorf, errors.New) is exempt, so hot parsers keep
// rich rejection messages. Allocation sites that are deliberate and
// amortized are suppressed in place with //lint:allow hotalloc
// <reason> — the allow is the documented budget decision.
//
// The //hot:path contract: annotate the functions executed once (or
// more) per record or per line — parse, fold, observe, evict — not
// the per-chunk or per-snapshot machinery around them. The annotation
// is load-bearing documentation: it marks where a one-allocation
// change is a throughput regression, and this analyzer keeps the
// marked set honest.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"fullweb/internal/lint/analysis"
	"fullweb/internal/lint/dataflow"
)

// Analyzer is the hotalloc rule.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation sites (conversions, fmt, un-presized growth, boxing, closures) in //hot:path functions",
	Run:  run,
}

// HotSet names functions that are hot regardless of annotation, by
// go/types full name — the configured hot set for code whose sources
// should not be edited. The repo's core per-record fold path is
// pinned here so removing an annotation cannot silently shrink lint
// coverage.
var HotSet = map[string]bool{
	"fullweb/internal/weblog.ParseCLF":                       true,
	"fullweb/internal/weblog.parseCLFInto":                   true,
	"fullweb/internal/weblog.parseChunk":                     true,
	"(*fullweb/internal/session.Streamer).ObserveClampedRef": true,
	"(*fullweb/internal/session.Streamer).observe":           true,
	"(*fullweb/internal/session.Streamer).evict":             true,
	"(*fullweb/internal/stream.Engine).observe":              true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !isHot(pass, fd) {
				continue
			}
			checkHot(pass, fd)
		}
	}
	return nil, nil
}

// isHot reports whether the function carries the //hot:path directive
// or is pinned in HotSet.
func isHot(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), "//hot:path") {
				return true
			}
		}
	}
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		return HotSet[fn.FullName()]
	}
	return false
}

type checker struct {
	pass      *analysis.Pass
	loopDepth int
	fd        *ast.FuncDecl
}

func checkHot(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, fd: fd}
	c.walk(fd.Body)
}

// walk descends the body tracking loop depth and skipping cold error
// exits.
func (c *checker) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.ReturnStmt:
		if constructsError(c.pass, n) {
			return // cold error exit: rejection paths may allocate
		}
	case *ast.ForStmt, *ast.RangeStmt:
		c.loopDepth++
		defer func() { c.loopDepth-- }()
	case *ast.FuncLit:
		c.pass.Reportf(n.Pos(), "closure on the hot path: the function literal (and its captured variables) allocate once its context escapes")
	case *ast.CallExpr:
		c.checkCall(n)
	case *ast.AssignStmt:
		c.checkAssignBoxing(n)
	}
	// Manual child walk so loop depth and exemptions scope correctly.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n || child == nil {
			return child == n
		}
		c.walk(child)
		return false
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := info.TypeOf(call), info.TypeOf(call.Args[0])
		if copyingConversion(to, from) {
			c.pass.Reportf(call.Pos(), "conversion %s on the hot path copies its operand", types.ExprString(call.Fun))
		}
		return
	}
	// fmt call?
	if pkg := calleePackage(info, call); pkg == "fmt" {
		c.pass.Reportf(call.Pos(), "fmt call on the hot path: formatting boxes every operand and allocates its result")
		return
	}
	// Builtin make/append?
	if b := calleeBuiltin(info, call); b != nil {
		switch b.Name() {
		case "make":
			c.checkMake(call)
		case "append":
			c.checkAppend(call)
		}
		return
	}
	c.checkArgBoxing(call)
}

// checkMake flags size-hint-free maps and zero-length capacity-free
// slices — both guarantee growth reallocation under load.
func (c *checker) checkMake(call *ast.CallExpr) {
	t := c.pass.TypesInfo.TypeOf(call)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		if len(call.Args) < 2 {
			c.pass.Reportf(call.Pos(), "make of a map with no size hint on the hot path; presize it")
		}
	case *types.Slice:
		if len(call.Args) == 2 && isZeroLiteral(call.Args[1]) {
			c.pass.Reportf(call.Pos(), "make of a zero-length slice with no capacity on the hot path; presize it")
		}
	}
}

// checkAppend flags in-loop appends whose destination has no reaching
// presized definition in this function.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if c.loopDepth == 0 || len(call.Args) == 0 {
		return
	}
	dst := call.Args[0]
	if presized(c.pass, c.fd, dst) {
		return
	}
	c.pass.Reportf(call.Pos(), "append inside a loop to %s, which has no presized definition in this function; growth reallocates on the hot path", types.ExprString(dst))
}

// presized reports whether dst has a defining assignment in fn whose
// right side provides capacity: a make with an explicit capacity, or
// any call result (capacity unknown but chosen by the producer, which
// is analyzed on its own).
func presized(pass *analysis.Pass, fn *ast.FuncDecl, dst ast.Expr) bool {
	dstObj := dataflow.RootObject(pass.TypesInfo, dst)
	dstText := types.ExprString(dst)
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			if types.ExprString(lhs) != dstText {
				continue
			}
			if dstObj != nil && dataflow.RootObject(pass.TypesInfo, lhs) != dstObj {
				continue
			}
			if providesCapacity(pass, as.Rhs[i]) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func providesCapacity(pass *analysis.Pass, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	if b := calleeBuiltin(pass.TypesInfo, call); b != nil {
		switch b.Name() {
		case "make":
			// make([]T, n) and make([]T, n, c) both carry capacity;
			// only the zero-length two-arg form (caught by checkMake)
			// does not help an append loop.
			return len(call.Args) == 3 || (len(call.Args) == 2 && !isZeroLiteral(call.Args[1]))
		case "append":
			return false
		}
		return false
	}
	// A non-builtin call result: the producer chose the capacity.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion, not a producer
	}
	return true
}

// checkArgBoxing flags concrete non-pointer values passed to
// interface-typed parameters.
func (c *checker) checkArgBoxing(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // spread: the slice itself is passed, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pt, info.TypeOf(arg)) {
			c.pass.Reportf(arg.Pos(), "passing %s boxes a concrete value into an interface parameter on the hot path (the container/heap cost class)", types.ExprString(arg))
		}
	}
}

// checkAssignBoxing flags concrete values assigned into
// interface-typed storage.
func (c *checker) checkAssignBoxing(as *ast.AssignStmt) {
	info := c.pass.TypesInfo
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		if boxes(info.TypeOf(lhs), info.TypeOf(as.Rhs[i])) {
			c.pass.Reportf(as.Rhs[i].Pos(), "assigning %s boxes a concrete value into interface storage on the hot path", types.ExprString(as.Rhs[i]))
		}
	}
}

// boxes reports whether storing a value of type from into type to
// heap-allocates an interface box: to is an interface, from is a
// concrete non-pointer type. (Pointers fit the interface word
// directly.)
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, iface := to.Underlying().(*types.Interface); !iface {
		return false
	}
	if _, iface := from.Underlying().(*types.Interface); iface {
		return false
	}
	if _, ptr := from.Underlying().(*types.Pointer); ptr {
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false // untyped nil / constants the compiler folds
	}
	return true
}

// copyingConversion reports string <-> []byte/[]rune and
// string -> []rune conversions, all of which copy.
func copyingConversion(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// constructsError reports whether a return statement builds its error
// in place (fmt.Errorf, errors.New) — the cold rejection exit.
func constructsError(pass *analysis.Pass, ret *ast.ReturnStmt) bool {
	cold := false
	ast.Inspect(ret, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg := calleePackage(pass.TypesInfo, call); (pkg == "fmt" && sel.Sel.Name == "Errorf") || (pkg == "errors" && sel.Sel.Name == "New") {
				cold = true
				return false
			}
		}
		return true
	})
	return cold
}

// calleePackage returns the package name a pkg.Fn call resolves to,
// or "".
func calleePackage(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

func calleeBuiltin(info *types.Info, call *ast.CallExpr) *types.Builtin {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	b, _ := info.Uses[id].(*types.Builtin)
	return b
}

func isZeroLiteral(e ast.Expr) bool {
	bl, ok := e.(*ast.BasicLit)
	return ok && bl.Value == "0"
}
