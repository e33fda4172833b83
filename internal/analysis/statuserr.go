package analysis

import (
	"go/ast"
	"go/types"
)

// StatusBoundaryPackages lists the packages whose exported API is an RPC
// boundary: every error they return must be a canonical status error so
// the span's code, and the telemetry plane's per-code Monarch series,
// classify the failure instead of lumping it into Internal.
var StatusBoundaryPackages = NewPackageList(
	"rpcscale/internal/stubby",
)

// StatuserrAnalyzer flags bare error constructions returned across an
// exported boundary of a status-disciplined package: fmt.Errorf,
// errors.New, errors.Join, and raw ctx.Err() results are all classified
// as Internal by StatusFromError, erasing the paper's error taxonomy.
//
// The check is intraprocedural and syntactic on the returned expression;
// errors propagated through variables are covered at runtime by the
// stubby boundary table test (TestExportedBoundariesReturnStatusErrors).
var StatuserrAnalyzer = &Analyzer{
	Name: "statuserr",
	Doc: "exported functions and methods of " + StatusBoundaryPackages.String() + " must return " +
		"canonical status errors (Errorf(code, ...), *Status), never bare fmt.Errorf/errors.New/ctx.Err(), " +
		"so every failure path leaves a classified code on its span",
	Run: runStatuserr,
}

func runStatuserr(pass *Pass) error {
	if !StatusBoundaryPackages.Match(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isExportedBoundary(pass, fn) {
				continue
			}
			errIdx := lastErrorResult(pass, fn)
			if errIdx < 0 {
				continue
			}
			checkBoundaryReturns(pass, fn, errIdx)
		}
	}
	return nil
}

// isExportedBoundary reports whether fn is callable from outside the
// package: an exported top-level func, or an exported method on an
// exported type.
func isExportedBoundary(pass *Pass, fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil {
		return true
	}
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Signature()
	if sig.Recv() == nil {
		return false
	}
	named := namedOrPointee(sig.Recv().Type())
	return named != nil && named.Obj().Exported()
}

// lastErrorResult returns the index of the trailing error result of fn,
// or -1.
func lastErrorResult(pass *Pass, fn *ast.FuncDecl) int {
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return -1
	}
	results := obj.Signature().Results()
	n := results.Len()
	if n == 0 {
		return -1
	}
	last := results.At(n - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return -1
	}
	return n - 1
}

func checkBoundaryReturns(pass *Pass, fn *ast.FuncDecl, errIdx int) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures return to their own callers
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) <= errIdx {
			return true
		}
		expr := ast.Unparen(ret.Results[errIdx])
		call, ok := expr.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := bareErrorConstructor(pass.TypesInfo, call); ok {
			pass.Reportf(expr.Pos(),
				"%s returned across the exported %s boundary: StatusFromError classifies it as Internal; construct a status error (Errorf(trace.<Code>, ...)) instead",
				kind, fn.Name.Name)
		}
		return true
	})
}

// bareErrorConstructor recognizes error values that carry no status code.
func bareErrorConstructor(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	switch funcPkgPath(fn) {
	case "fmt":
		if fn.Name() == "Errorf" {
			return "fmt.Errorf", true
		}
	case "errors":
		if fn.Name() == "New" || fn.Name() == "Join" {
			return "errors." + fn.Name(), true
		}
	case "context":
		// (context.Context).Err: a raw cancellation error instead of the
		// canonical Cancelled/DeadlineExceeded status.
		if fn.Name() == "Err" && !isPackageLevel(fn) {
			return "ctx.Err()", true
		}
	}
	return "", false
}
