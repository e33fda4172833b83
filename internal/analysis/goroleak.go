package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroleakExitCalls are callee names that bound a goroutine loop from
// the outside: blocking reads that return an error when the peer or
// owner closes the underlying resource.
var GoroleakExitCalls = NewStringSet(
	"Accept", "Copy", "Next", "Read", "ReadByte", "ReadFrame", "ReadFull",
	"Recv", "Scan", "Wait", "recv",
)

// GoroleakAnalyzer flags `go` statements whose goroutine can outlive its
// spawning scope: the body (a func literal, or a same-module function
// resolved through the call) contains a condition-less `for` loop with
// no shutdown edge inside it. A shutdown edge is anything that lets the
// owner stop the loop or that ends when the connection does: a channel
// receive (including `select` with comm cases and `range` over a
// channel), use of a context.Context, a sync.WaitGroup Done/Wait, or a
// blocking conn/reader call (see -goroleak.exitcalls). Tuned to the real
// loop shapes in internal/stubby (sendLoop/readLoop/worker) and
// internal/cluster (child supervisors): those all pass; a bare
// `for { work() }` poller does not.
var GoroleakAnalyzer = &Analyzer{
	Name: "goroleak",
	Doc: "flag go statements spawning loops with no shutdown edge (channel receive, select, " +
		"context, WaitGroup, or " + GoroleakExitCalls.String() + " call); such goroutines " +
		"outlive their spawner and accumulate under churn",
	Run: runGoroleak,
}

func runGoroleak(pass *Pass) error {
	idx := pass.Mod.Index()
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, info := goroutineBody(pass, idx, g)
			if body == nil {
				return true
			}
			for _, loop := range endlessLoops(body) {
				if hasShutdownEdge(info, loop.Body) {
					continue
				}
				pass.Reportf(g.Pos(),
					"goroutine loops forever (line %d) with no shutdown edge: no channel receive, select, context, WaitGroup, or conn/reader call bounds it, so it outlives its spawner; wire a done channel or context case",
					pass.Fset.Position(loop.Pos()).Line)
			}
			return true
		})
	}
	return nil
}

// goroutineBody resolves what the spawned goroutine runs: a func
// literal's body, or the declaration of a module function named in the
// call (cross-package via the module index). Unresolvable callees
// (func-typed values, out-of-module functions) are skipped.
func goroutineBody(pass *Pass, idx *funcIndex, g *ast.GoStmt) (*ast.BlockStmt, *types.Info) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, pass.TypesInfo
	}
	if di := idx.lookup(calleeFunc(pass.TypesInfo, g.Call)); di.decl != nil {
		return di.decl.Body, di.pkg.TypesInfo
	}
	return nil, nil
}

// endlessLoops collects the condition-less for loops of a body, treating
// nested func literals as separate goroutine candidates.
func endlessLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var loops []*ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				loops = append(loops, n)
			}
		}
		return true
	})
	return loops
}

// hasShutdownEdge scans a loop body for anything that bounds it. Bodies
// of further `go` statements don't count: an edge inside a goroutine
// spawned per-iteration does not stop the loop itself.
func hasShutdownEdge(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					found = true
				}
			}
		case *ast.Ident:
			if tv, ok := info.Types[n]; ok && isContextType(tv.Type) {
				found = true
			}
		case *ast.SelectorExpr:
			if tv, ok := info.Types[n]; ok && isContextType(tv.Type) {
				found = true
			}
		case *ast.CallExpr:
			if isShutdownCall(info, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, _ := t.(*types.Named)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// isShutdownCall recognizes WaitGroup joins and the blocking
// conn/reader calls of GoroleakExitCalls (matched by name so interface
// methods and func fields count too).
func isShutdownCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if n := namedOrPointee(typeOf(info, fun.X)); n != nil &&
			n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup" &&
			(fun.Sel.Name == "Done" || fun.Sel.Name == "Wait") {
			return true
		}
		return GoroleakExitCalls.Has(fun.Sel.Name)
	case *ast.Ident:
		return GoroleakExitCalls.Has(fun.Name)
	}
	return false
}

// typeOf returns the resolved type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
