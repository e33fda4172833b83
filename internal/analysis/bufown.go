package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// BufownAcquireFuncs are the pool seams whose result is an owned buffer.
var BufownAcquireFuncs = NewFuncList("wire.GetBuf")

// BufownReleaseFuncs recycle their first argument; the caller must not
// touch the buffer afterwards.
var BufownReleaseFuncs = NewFuncList("wire.PutBuf", "stubby.FreeResponse")

// BufownAliasFuncs return a buffer that aliases their first argument
// (append-style seal/open in place), so ownership flows through them.
var BufownAliasFuncs = NewFuncList(
	"secure.Session.OpenAppend", "secure.Session.OpenAppendAAD",
	"secure.Session.SealAppend", "secure.Session.SealAppendAAD",
	"secure.Worker.SealAppendAAD",
)

// BufownAnalyzer enforces the DESIGN.md §11/§12 buffer-ownership
// contract: values acquired from the wire pool (or derived from one
// through append/seal/open aliasing) are tracked through assignments and
// call sites using per-function ownership summaries. It reports
//
//   - uses and re-releases of a buffer after wire.PutBuf/FreeResponse on
//     the same statement path (use-after-release, double-release);
//   - owned buffers stored into struct fields or captured by spawned
//     goroutines without a documented transfer (//rpclint:owns on the
//     field, //rpclint:transfers on the callee parameter);
//   - owned buffers that are never released, returned, or handed off.
//
// Summaries are inferred module-wide (alias-through returns,
// unconditional releases of parameters) and seeded for the known wire
// and secure seams: wire.GetBuf and wire.PutBuf wrap a sync.Pool, whose
// ownership no summary can infer.
var BufownAnalyzer = &Analyzer{
	Name: "bufown",
	Doc: "track pool-owned buffers (" + BufownAcquireFuncs.String() + ") through assignments and " +
		"calls; flag use-after-release, double-release, undocumented escapes to fields or " +
		"goroutines, and paths that leak an owned buffer",
	Run: runBufown,
}

// ownSummary is one function's inferred ownership behavior.
type ownSummary struct {
	returnsOwned bool         // first result is a pool-owned buffer
	aliasParam   int          // first result aliases this param, or -1
	releases     map[int]bool // params released on every path (top-level)
}

// ownFacts is the module-wide ownership model: annotations plus the
// summary fixpoint.
type ownFacts struct {
	ann  *annotations
	sums map[*types.Func]*ownSummary
}

// ownership returns the module's ownership facts, computing them on
// first use: parse annotations, seed summaries, then propagate
// alias-through and unconditional-release facts to a fixpoint.
func (m *Module) ownership() *ownFacts {
	if m.own != nil {
		return m.own
	}
	facts := &ownFacts{ann: parseAnnotations(m), sums: make(map[*types.Func]*ownSummary)}
	m.own = facts
	m.eachDecl(func(fn *types.Func, fd *ast.FuncDecl, pkg *Package) {
		facts.sums[fn] = &ownSummary{
			returnsOwned: facts.ann.ownsResult[fn],
			aliasParam:   -1,
			releases:     make(map[int]bool),
		}
	})
	for changed := true; changed; {
		changed = false
		m.eachDecl(func(fn *types.Func, fd *ast.FuncDecl, pkg *Package) {
			s := facts.sums[fn]
			if s.aliasParam < 0 {
				if i := facts.inferAlias(fn, fd, pkg); i >= 0 {
					s.aliasParam = i
					changed = true
				}
			}
			if facts.inferReleases(fn, fd, pkg, s) {
				changed = true
			}
		})
	}
	return facts
}

// returnsOwned reports whether calling fn yields a buffer the caller
// owns.
func (f *ownFacts) returnsOwned(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if BufownAcquireFuncs.Match(fn) {
		return true
	}
	if s := f.sums[fn]; s != nil && s.returnsOwned {
		return true
	}
	return f.ann.ownsResult[fn]
}

// releasesParam reports whether fn unconditionally recycles param i.
func (f *ownFacts) releasesParam(fn *types.Func, i int) bool {
	if fn == nil {
		return false
	}
	if i == 0 && BufownReleaseFuncs.Match(fn) {
		return true
	}
	s := f.sums[fn]
	return s != nil && s.releases[i]
}

// aliasParam returns the param index fn's first result aliases, or -1.
func (f *ownFacts) aliasParam(fn *types.Func) int {
	if fn == nil {
		return -1
	}
	if BufownAliasFuncs.Match(fn) {
		return 0
	}
	if s := f.sums[fn]; s != nil {
		return s.aliasParam
	}
	return -1
}

// transfersParam reports whether fn's param i is an annotated hand-off.
func (f *ownFacts) transfersParam(fn *types.Func, i int) bool {
	if fn == nil {
		return false
	}
	t := f.ann.transfers[fn]
	return t != nil && t[i]
}

// paramObjs maps fn's parameter objects to their indices.
func paramObjs(fn *types.Func) map[types.Object]int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make(map[types.Object]int, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		out[sig.Params().At(i)] = i
	}
	return out
}

// isByteSlice reports whether t is []byte (possibly named).
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// inferAlias detects append-style functions whose first result always
// derives from the same parameter (every return is rooted at it through
// append, slicing, or another alias-through call).
func (f *ownFacts) inferAlias(fn *types.Func, fd *ast.FuncDecl, pkg *Package) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 || !isByteSlice(sig.Results().At(0).Type()) {
		return -1
	}
	params := paramObjs(fn)
	root := -2 // unset
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		r := -1
		if len(ret.Results) > 0 {
			r = f.rootParam(ret.Results[0], pkg.TypesInfo, params)
		}
		switch {
		case r < 0:
			root = -1
		case root == -2:
			root = r
		case root != r:
			root = -1
		}
		return true
	})
	if root < 0 {
		return -1
	}
	return root
}

// rootParam resolves the parameter an expression's storage derives from,
// or -1.
func (f *ownFacts) rootParam(e ast.Expr, info *types.Info, params map[types.Object]int) int {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if i, ok := params[info.Uses[e]]; ok {
			return i
		}
	case *ast.SliceExpr:
		return f.rootParam(e.X, info, params)
	case *ast.CallExpr:
		if isBuiltin(info, e, "append") && len(e.Args) > 0 {
			return f.rootParam(e.Args[0], info, params)
		}
		if k := f.aliasParam(calleeFunc(info, e)); k >= 0 && k < len(e.Args) {
			return f.rootParam(e.Args[k], info, params)
		}
	}
	return -1
}

// inferReleases records parameters that fn hard-releases at the top
// level of its body (unconditionally, directly or through a callee whose
// summary already says so). Reports whether the summary grew.
func (f *ownFacts) inferReleases(fn *types.Func, fd *ast.FuncDecl, pkg *Package, s *ownSummary) bool {
	params := paramObjs(fn)
	changed := false
	for _, st := range fd.Body.List {
		var call *ast.CallExpr
		switch st := st.(type) {
		case *ast.ExprStmt:
			call, _ = st.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = st.Call
		}
		if call == nil {
			continue
		}
		callee := calleeFunc(pkg.TypesInfo, call)
		for j, arg := range call.Args {
			if !f.releasesParam(callee, j) {
				continue
			}
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			if i, ok := params[pkg.TypesInfo.Uses[id]]; ok && !s.releases[i] {
				s.releases[i] = true
				changed = true
			}
		}
	}
	return changed
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// funcDisplay prints fn as "pkg.Name" or "pkg.Type.Name".
func funcDisplay(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	name := fn.Name()
	if r := recvTypeName(fn); r != "" {
		name = r + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

func runBufown(pass *Pass) error {
	facts := pass.Mod.ownership()
	emitFor(pass, facts.ann.reports)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bufownBody(pass, facts, fn.Body)
				}
			case *ast.FuncLit:
				bufownBody(pass, facts, fn.Body)
			}
			return true
		})
	}
	return nil
}

// ownedBuf is one tracked acquisition within a function scope.
type ownedBuf struct {
	pos      token.Pos
	src      string // the seam it came from, e.g. "wire.GetBuf"
	consumed bool   // released, returned, stored, or handed to a call
}

// relInfo records one hard release on the current statement path.
type relInfo struct {
	line int
	by   string
}

type bufScope struct {
	pass  *Pass
	facts *ownFacts
	info  *types.Info
	owned map[types.Object]*ownedBuf
}

// bufownBody analyzes one function (or func literal) body as its own
// scope. Pass one finds acquisitions in source order; pass two walks the
// statement structure checking the release discipline.
func bufownBody(pass *Pass, facts *ownFacts, body *ast.BlockStmt) {
	s := &bufScope{pass: pass, facts: facts, info: pass.TypesInfo, owned: make(map[types.Object]*ownedBuf)}
	s.collectAcquisitions(body)
	s.scanList(body.List, make(map[string]relInfo))
	var leaks []*ownedBuf
	for _, ob := range s.owned {
		if !ob.consumed {
			leaks = append(leaks, ob)
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, ob := range leaks {
		pass.Reportf(ob.pos,
			"pooled buffer from %s is never released, returned, or handed off; every path must recycle it or document the transfer",
			ob.src)
	}
}

// varObj resolves id to the variable it defines or uses, or nil.
func (s *bufScope) varObj(id *ast.Ident) *types.Var {
	obj := s.info.Uses[id]
	if obj == nil {
		obj = s.info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	if v == nil || v.IsField() {
		return nil
	}
	return v
}

// ownedRoot resolves the ownership origin of an expression: an owned
// local (possibly through slicing, append, or an alias-through call) or
// a direct acquiring call.
func (s *bufScope) ownedRoot(e ast.Expr) (src string, from types.Object, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v := s.varObj(e); v != nil {
			if ob := s.owned[v]; ob != nil {
				return ob.src, v, true
			}
		}
	case *ast.SliceExpr:
		return s.ownedRoot(e.X)
	case *ast.CallExpr:
		callee := calleeFunc(s.info, e)
		if s.facts.returnsOwned(callee) {
			return funcDisplay(callee), nil, true
		}
		if isBuiltin(s.info, e, "append") && len(e.Args) > 0 {
			return s.ownedRoot(e.Args[0])
		}
		if k := s.facts.aliasParam(callee); k >= 0 && k < len(e.Args) {
			return s.ownedRoot(e.Args[k])
		}
	}
	return "", nil, false
}

// collectAcquisitions records every assignment that makes a local an
// owned buffer, in source order so alias chains resolve forward.
func (s *bufScope) collectAcquisitions(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := s.varObj(id)
		if obj == nil || !isByteSlice(obj.Type()) {
			return true
		}
		src, from, owned := s.ownedRoot(as.Rhs[0])
		if !owned {
			return true
		}
		if from == types.Object(obj) {
			return true // buf = append(buf, ...): same buffer, still owned
		}
		if from != nil {
			s.owned[from].consumed = true // moved into the new variable
		}
		if s.owned[obj] == nil {
			s.owned[obj] = &ownedBuf{pos: id.Pos(), src: src}
		}
		return true
	})
}

// trackPath prints an ident-or-selector chain rooted at a variable
// ("buf", "b.env"), the key space of the release map.
func (s *bufScope) trackPath(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if s.varObj(e) != nil {
			return e.Name, true
		}
	case *ast.SelectorExpr:
		if root, ok := s.trackPath(e.X); ok {
			return root + "." + e.Sel.Name, true
		}
	}
	return "", false
}

// checkUse reports a read of a path whose buffer was released earlier on
// this statement path.
func (s *bufScope) checkUse(path string, pos token.Pos, released map[string]relInfo) {
	for k, r := range released {
		if path == k || strings.HasPrefix(path, k+".") {
			s.pass.Reportf(pos,
				"use of %s after %s released it at line %d; the buffer may already be recycled into another call",
				path, r.by, r.line)
			return
		}
	}
}

// kill invalidates a path (and everything below it) on assignment.
func kill(released map[string]relInfo, path string) {
	delete(released, path)
	for k := range released {
		if strings.HasPrefix(k, path+".") {
			delete(released, k)
		}
	}
}

// scanList walks one statement list. Releases registered by nested
// blocks are conditional and roll back when the block exits; kills
// (reassignments) persist.
func (s *bufScope) scanList(stmts []ast.Stmt, released map[string]relInfo) {
	var added []string
	for _, st := range stmts {
		s.scanStmt(st, released, &added)
	}
	for _, k := range added {
		delete(released, k)
	}
}

func (s *bufScope) scanStmt(st ast.Stmt, released map[string]relInfo, added *[]string) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.scanList(st.List, released)
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, released, added)
	case *ast.IfStmt:
		s.scanStmt(st.Init, released, added)
		s.scanExpr(st.Cond, false, released, nil)
		s.scanList(st.Body.List, released)
		s.scanStmt(st.Else, released, added)
	case *ast.ForStmt:
		s.scanStmt(st.Init, released, added)
		s.scanExpr(st.Cond, false, released, nil)
		s.scanList(st.Body.List, released)
		s.scanStmt(st.Post, released, added)
	case *ast.RangeStmt:
		s.scanExpr(st.X, false, released, nil)
		s.scanList(st.Body.List, released)
	case *ast.SwitchStmt:
		s.scanStmt(st.Init, released, added)
		s.scanExpr(st.Tag, false, released, nil)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				s.scanExpr(e, false, released, nil)
			}
			s.scanList(cc.Body, released)
		}
	case *ast.TypeSwitchStmt:
		s.scanStmt(st.Init, released, added)
		s.scanStmt(st.Assign, released, added)
		for _, c := range st.Body.List {
			s.scanList(c.(*ast.CaseClause).Body, released)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			var commAdded []string
			s.scanStmt(cc.Comm, released, &commAdded)
			s.scanList(cc.Body, released)
		}
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && s.scanReleaseCall(call, released, added) {
			return
		}
		s.scanExpr(st.X, false, released, nil)
	case *ast.AssignStmt:
		s.scanAssign(st, released)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.scanExpr(r, true, released, nil)
		}
	case *ast.SendStmt:
		s.scanExpr(st.Chan, false, released, nil)
		s.scanExpr(st.Value, true, released, nil)
	case *ast.DeferStmt:
		s.scanExpr(st.Call, false, released, nil)
	case *ast.GoStmt:
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.checkGoCapture(lit)
		} else {
			// An owned buffer crossing into a goroutine needs the callee
			// to declare the hand-off with //rpclint:transfers.
			callee := calleeFunc(s.info, st.Call)
			for i, arg := range st.Call.Args {
				if _, _, ok := s.ownedRoot(arg); ok && !s.facts.transfersParam(callee, i) {
					s.pass.Reportf(arg.Pos(),
						"pooled buffer passed to goroutine %s without //rpclint:transfers on the parameter; document the hand-off",
						funcDisplay(callee))
				}
			}
		}
		s.scanExpr(st.Call, false, released, nil)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.scanExpr(v, true, released, nil)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		s.scanExpr(st.X, false, released, nil)
	}
}

// scanReleaseCall handles a top-level hard-release call: double-release
// detection, registration on this path, and consumption. Reports
// whether the call released anything.
func (s *bufScope) scanReleaseCall(call *ast.CallExpr, released map[string]relInfo, added *[]string) bool {
	callee := calleeFunc(s.info, call)
	handled := false
	for j, arg := range call.Args {
		if !s.facts.releasesParam(callee, j) {
			s.scanExpr(arg, true, released, nil)
			continue
		}
		handled = true
		s.consume(arg)
		path, ok := s.trackPath(arg)
		if !ok {
			continue
		}
		if prev, dup := released[path]; dup {
			s.pass.Reportf(arg.Pos(),
				"%s released twice: already passed to %s at line %d", path, prev.by, prev.line)
			continue
		}
		released[path] = relInfo{line: s.pass.Fset.Position(call.Pos()).Line, by: funcDisplay(callee)}
		*added = append(*added, path)
	}
	return handled
}

// consume marks the owned root of e (if any) as handed off.
func (s *bufScope) consume(e ast.Expr) {
	if _, from, ok := s.ownedRoot(e); ok && from != nil {
		s.owned[from].consumed = true
	}
}

func (s *bufScope) scanAssign(as *ast.AssignStmt, released map[string]relInfo) {
	// buf = append(buf, ...) keeps ownership in place; exempt the self
	// root from consumption.
	var selfObj types.Object
	if len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if v := s.varObj(id); v != nil {
				if _, from, ok := s.ownedRoot(as.Rhs[0]); ok && from == types.Object(v) {
					selfObj = v
				}
			}
		}
	}
	for _, r := range as.Rhs {
		s.scanExpr(r, true, released, selfObj)
	}
	for i, l := range as.Lhs {
		// A store into a struct field must target a documented owner.
		if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
			if rhs := pairedRhs(as, i); rhs != nil {
				if _, _, ok := s.ownedRoot(rhs); ok {
					s.checkFieldStore(sel.Sel, sel.Pos())
				}
			}
			s.scanExpr(sel.X, false, released, nil)
		}
		if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
			s.scanExpr(ix.X, false, released, nil)
			s.scanExpr(ix.Index, false, released, nil)
		}
		if path, ok := s.trackPath(l); ok {
			kill(released, path)
		}
	}
}

// pairedRhs returns the RHS expression feeding LHS i, handling both 1:1
// and multi-value (single call) assignments.
func pairedRhs(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		return as.Rhs[i]
	}
	if len(as.Rhs) == 1 && i == 0 {
		return as.Rhs[0]
	}
	return nil
}

// checkFieldStore reports a store of an owned buffer into a field that
// is not annotated as the documented owner.
func (s *bufScope) checkFieldStore(fieldIdent *ast.Ident, pos token.Pos) {
	obj := s.info.Uses[fieldIdent]
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); !ok || !v.IsField() {
		return
	}
	if s.facts.ann.fieldOwns[obj] {
		return
	}
	s.pass.Reportf(pos,
		"pooled buffer stored in field %s without //rpclint:owns; the recycling contract needs a documented owner (DESIGN.md §11)",
		obj.Name())
}

// checkGoCapture flags owned buffers referenced inside a spawned
// goroutine: the pool contract needs an explicit hand-off, not an
// implicit closure share.
func (s *bufScope) checkGoCapture(lit *ast.FuncLit) {
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v := s.varObj(id)
		if v == nil || reported[v] {
			return true
		}
		if ob := s.owned[v]; ob != nil {
			reported[v] = true
			ob.consumed = true // the goroutine owns it now; don't double-report as a leak
			s.pass.Reportf(id.Pos(),
				"pooled buffer %s captured by spawned goroutine without a documented transfer; release it before spawning or hand it off explicitly",
				id.Name)
		}
		return true
	})
}

// scanExpr walks an expression: use-after-release checks on every
// tracked path read, consumption marking when the context retains the
// value (consuming=true).
func (s *bufScope) scanExpr(e ast.Expr, consuming bool, released map[string]relInfo, skipConsume types.Object) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if v := s.varObj(e); v != nil {
			s.checkUse(e.Name, e.Pos(), released)
			if consuming && types.Object(v) != skipConsume {
				if ob := s.owned[v]; ob != nil {
					ob.consumed = true
				}
			}
		}
	case *ast.SelectorExpr:
		if path, ok := s.trackPath(e); ok {
			s.checkUse(path, e.Pos(), released)
			return
		}
		s.scanExpr(e.X, false, released, nil)
	case *ast.CallExpr:
		s.scanExpr(e.Fun, false, released, nil)
		switch {
		case isBuiltin(s.info, e, "len") || isBuiltin(s.info, e, "cap") || isBuiltin(s.info, e, "copy"):
			for _, a := range e.Args {
				s.scanExpr(a, false, released, nil)
			}
		case isBuiltin(s.info, e, "append"):
			for i, a := range e.Args {
				// The base slice is consumed only if the result is; the
				// appended values are retained either way.
				s.scanExpr(a, consuming || i > 0, released, skipConsume)
			}
		default:
			for _, a := range e.Args {
				s.scanExpr(a, true, released, skipConsume)
			}
		}
	case *ast.CompositeLit:
		s.scanComposite(e, released)
	case *ast.KeyValueExpr:
		s.scanExpr(e.Value, consuming, released, skipConsume)
	case *ast.UnaryExpr:
		s.scanExpr(e.X, e.Op == token.AND, released, nil)
	case *ast.StarExpr:
		s.scanExpr(e.X, consuming, released, skipConsume)
	case *ast.ParenExpr:
		s.scanExpr(e.X, consuming, released, skipConsume)
	case *ast.TypeAssertExpr:
		s.scanExpr(e.X, consuming, released, skipConsume)
	case *ast.BinaryExpr:
		s.scanExpr(e.X, false, released, nil)
		s.scanExpr(e.Y, false, released, nil)
	case *ast.IndexExpr:
		s.scanExpr(e.X, false, released, nil)
		s.scanExpr(e.Index, false, released, nil)
	case *ast.SliceExpr:
		s.scanExpr(e.X, consuming, released, skipConsume)
		s.scanExpr(e.Low, false, released, nil)
		s.scanExpr(e.High, false, released, nil)
		s.scanExpr(e.Max, false, released, nil)
	case *ast.FuncLit:
		// Separate scope; but a closure may release or retain captured
		// owned buffers, so treat every captured owned local as consumed.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := s.varObj(id); v != nil {
					if ob := s.owned[v]; ob != nil {
						ob.consumed = true
					}
				}
			}
			return true
		})
	}
}

// scanComposite checks struct literals for owned buffers landing in
// unannotated fields; all elements are consuming positions.
func (s *bufScope) scanComposite(cl *ast.CompositeLit, released map[string]relInfo) {
	st, _ := s.structOf(cl)
	for i, elt := range cl.Elts {
		value := elt
		var field *types.Var
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if key, ok := kv.Key.(*ast.Ident); ok && st != nil {
				field, _ = s.info.Uses[key].(*types.Var)
			}
		} else if st != nil && i < st.NumFields() {
			field = st.Field(i)
		}
		if field != nil {
			if _, _, ok := s.ownedRoot(value); ok && !s.facts.ann.fieldOwns[field] {
				s.pass.Reportf(value.Pos(),
					"pooled buffer stored in field %s without //rpclint:owns; the recycling contract needs a documented owner (DESIGN.md §11)",
					field.Name())
			}
		}
		s.scanExpr(value, true, released, nil)
	}
}

// structOf resolves the struct type a composite literal builds, or nil.
func (s *bufScope) structOf(cl *ast.CompositeLit) (*types.Struct, bool) {
	tv, ok := s.info.Types[cl]
	if !ok {
		return nil, false
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	return st, ok
}
