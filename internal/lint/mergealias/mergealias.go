// Package mergealias flags snapshot code that hands out references to
// a sketch's internal slices, maps and pointers — the bug class behind
// the Reservoir.Sample defensive-copy fix: a State/Sample that returns
// internal storage lets callers corrupt the sketch.
//
// Methods named State/state, Snapshot/snapshot and Sample/Samples are
// scanned: receiver-rooted reference values must not be returned or
// placed into the image.
//
// Copies break the taint: append, make+copy, and any function call
// produce fresh storage. Tracking is a source-order reaching-defs walk
// over locals (internal/lint/dataflow), so `tmp := r.items` followed
// by `tmp = append([]float64(nil), tmp...)` is clean. Findings are
// latent correctness bugs by contract: fix with a copy, do not
// suppress.
package mergealias

import (
	"go/ast"
	"go/types"

	"fullweb/internal/lint/analysis"
	"fullweb/internal/lint/dataflow"
)

// Analyzer is the mergealias rule.
var Analyzer = &analysis.Analyzer{
	Name: "mergealias",
	Doc:  "flags State/Snapshot/Sample code handing out references to internal slices and maps",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil && len(fd.Recv.List) > 0 && isSnapshotName(fd.Name.Name) {
				checkSnapshot(pass, fd)
			}
		}
	}
	return nil, nil
}

func isSnapshotName(name string) bool {
	switch name {
	case "State", "state", "Snapshot", "snapshot", "Sample", "Samples":
		return true
	}
	return false
}

// checkSnapshot verifies receiver-internal storage never escapes into
// the returned value or image.
func checkSnapshot(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	recv := receiverObject(info, fd)
	if recv == nil {
		return
	}
	internal := map[types.Object]bool{recv: true}
	taint := dataflow.NewTaint(info)
	walkStmts(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				taint.Observe(lhs, n.Rhs[i], internal)
			}
		case *ast.RangeStmt:
			observeRange(taint, n, internal)
		case *ast.KeyValueExpr:
			if taint.RootParam(n.Value, internal) != nil && aliasable(pass, n.Value) {
				pass.Reportf(n.Pos(),
					"snapshot image embeds %s, which shares storage with the receiver's internal state; callers can corrupt the sketch (the Reservoir.Sample bug class) — copy it",
					types.ExprString(n.Value))
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if taint.RootParam(res, internal) != nil && aliasable(pass, res) {
					pass.Reportf(n.Pos(),
						"%s returns %s, which shares storage with the receiver's internal state; callers can corrupt the sketch (the Reservoir.Sample bug class) — return a copy",
						fd.Name.Name, types.ExprString(res))
				}
			}
		}
	})
}

// aliasable reports whether retaining expr retains shared storage: a
// slice, map or pointer, or a same-package struct that transitively
// carries one (copying it still shares the backing arrays). Structs
// from other packages (time.Time and friends) own their invariants
// and are not flagged.
func aliasable(pass *analysis.Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return false
	}
	if dataflow.IsReferenceType(t) {
		return true
	}
	named := dataflow.NamedStructOf(t)
	if named == nil || named.Obj().Pkg() != pass.Pkg {
		return false
	}
	return dataflow.HasReferenceFields(named)
}

// receiverObject resolves the method receiver's object, or nil.
func receiverObject(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fd.Recv.List[0].Names[0]]
}

// observeRange taints range variables with the range operand's root:
// `for _, p := range parts` makes p share parts' storage when the
// element type is reference-like.
func observeRange(taint *dataflow.Taint, rs *ast.RangeStmt, params map[types.Object]bool) {
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if v == nil {
			continue
		}
		taint.Observe(v, rs.X, params)
	}
}

// walkStmts visits fd's statements in source order, calling visit on
// each node. ast.Inspect already visits in position order within a
// statement list, which is the source-order approximation the taint
// walk needs.
func walkStmts(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n != nil {
			visit(n)
		}
		return true
	})
}
