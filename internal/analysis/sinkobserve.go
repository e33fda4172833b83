package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SinkObserveMethods are the streaming-accumulator method names whose
// implementations must fold their argument into bounded state without
// retaining it: the workload.SpanSink interface plus the telemetry/trace
// Observe hooks.
var SinkObserveMethods = NewStringSet(
	"Observe",
	"MethodSpan",
	"VolumeSpan",
	"TreeSpan",
	"ExoSample",
)

// SinkobserveAnalyzer flags observe-path methods that store their
// argument (or a pointer/slice/map reachable from it) into receiver
// state. The observe path runs once per span at full stream volume; a
// retained span pins its allocation, breaking the 0 allocs/op
// steady-state contract the streaming benchmarks assert. Sinks whose
// contract is retention (the dataset buffer, the studied-method sample)
// must say so with //rpclint:ignore sinkobserve <reason>.
//
// A store counts when an assignment's left side is rooted at the
// receiver and its right side references the argument through a
// reference type: the argument itself, its address, a pointer/slice/map
// field of it, or an append/composite literal containing one. Copies of
// scalar and string fields pass.
var SinkobserveAnalyzer = &Analyzer{
	Name: "sinkobserve",
	Doc: "accumulator methods (" + SinkObserveMethods.String() + ") must not retain their argument " +
		"in receiver state; copy the fields the figure needs so the steady-state observe path stays 0 allocs/op",
	Run: runSinkobserve,
}

func runSinkobserve(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || !SinkObserveMethods.Has(fn.Name.Name) {
				continue
			}
			recv := receiverObject(pass, fn)
			if recv == nil {
				continue
			}
			params := refParams(pass, fn)
			if len(params) == 0 {
				continue
			}
			checkRetention(pass, fn, recv, params)
		}
	}
	return nil
}

// receiverObject returns the receiver variable's object, or nil for an
// anonymous receiver.
func receiverObject(pass *Pass, fn *ast.FuncDecl) types.Object {
	if len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}

// refParams returns the parameter objects whose values can be retained
// (pointer-, slice-, map-, or interface-typed).
func refParams(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	params := make(map[types.Object]bool)
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isRefType(obj.Type()) {
				params[obj] = true
			}
		}
	}
	return params
}

func checkRetention(pass *Pass, fn *ast.FuncDecl, recv types.Object, params map[types.Object]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		storesToRecv := false
		for _, lhs := range as.Lhs {
			if rootObject(pass.TypesInfo, lhs) == recv {
				storesToRecv = true
				break
			}
		}
		if !storesToRecv {
			return true
		}
		for _, rhs := range as.Rhs {
			if ref := retainingRef(pass.TypesInfo, rhs, params); ref != nil {
				pass.Reportf(as.Pos(),
					"%s stores %s in receiver state, retaining the observed argument past the call; copy the needed fields instead (0 allocs/op observe contract)",
					fn.Name.Name, types.ExprString(ref))
				return true
			}
		}
		return true
	})
}

// rootObject follows a selector/index/star/paren chain to its base
// identifier's object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// retainingRef finds a subexpression of e that aliases one of the
// parameters through a reference type, returning it (or nil). An
// identifier use of the parameter counts when the maximal selector chain
// it roots has reference type: `s` and `s.Child` retain, `s.Method`
// (string) and `s.Count` (scalar) are copies.
func retainingRef(info *types.Info, e ast.Expr, params map[types.Object]bool) ast.Expr {
	var found ast.Expr
	// parents maps each selector's operand to the selector, letting the
	// ident visitor climb to the maximal chain it roots.
	parents := make(map[ast.Expr]ast.Expr)
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			parents[sel.X] = sel
		}
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			parents[u.X] = u
		}
		return true
	})
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || !params[info.Uses[id]] {
			return true
		}
		// Climb to the maximal selector/address chain rooted here.
		var chain ast.Expr = id
		for p, ok := parents[chain]; ok; p, ok = parents[chain] {
			chain = p
		}
		if tv, ok := info.Types[chain]; ok && !isRefType(tv.Type) {
			return true // value copy of a field: no retention
		}
		found = chain
		return false
	})
	return found
}
