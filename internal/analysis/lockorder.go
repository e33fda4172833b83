package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// LockorderAnalyzer builds the interprocedural mutex acquisition graph
// of the module and reports cycles — the deadlock shape lockheld's
// intra-procedural view cannot see. Locks are grouped into classes by
// owner type and field ("stubby.transport.sendMu") or package-level
// variable; per-function summaries record which classes a call may
// acquire (propagated to a fixpoint through the call graph), and an edge
// A→B means B is acquired — directly or through a callee — while A is
// held. Any edge on a cycle is reported at its acquisition site. Func
// literals are separate scopes (a goroutine does not inherit its
// spawner's held locks), matching lockheld's model.
var LockorderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "build the module-wide mutex acquisition-order graph (lock classes by owner type and " +
		"field, callee acquisitions propagated through summaries) and flag cycles: two lock " +
		"classes taken in both orders can deadlock under contention",
	Run: runLockorder,
}

// lockFacts caches the module's computed cycle reports.
type lockFacts struct {
	reports []moduleReport
}

// lockScope is one analyzed body: its class-keyed lock events and the
// resolvable calls it makes.
type lockScope struct {
	events []lockEvent
	calls  []lockCallSite
	end    token.Pos
	pkg    *Package
}

type lockCallSite struct {
	pos token.Pos
	fn  *types.Func
}

func runLockorder(pass *Pass) error {
	emitFor(pass, pass.Mod.lockorder().reports)
	return nil
}

func (m *Module) lockorder() *lockFacts {
	if m.lock != nil {
		return m.lock
	}
	facts := &lockFacts{}
	m.lock = facts

	// Collect per-function scopes (named declarations feed summaries)
	// plus anonymous func-literal scopes (edges only).
	var scopes []*lockScope
	direct := make(map[*types.Func]map[string]bool)
	byFunc := make(map[*types.Func]*lockScope)
	m.eachDecl(func(fn *types.Func, fd *ast.FuncDecl, pkg *Package) {
		sc := scanLockScope(pkg, fd.Body)
		scopes = append(scopes, sc)
		byFunc[fn] = sc
		for _, ev := range sc.events {
			if ev.acquire {
				if direct[fn] == nil {
					direct[fn] = make(map[string]bool)
				}
				direct[fn][ev.key] = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				scopes = append(scopes, scanLockScope(pkg, lit.Body))
				return false
			}
			return true
		})
	})

	// Summary fixpoint: acquires(fn) = direct(fn) ∪ acquires(callees).
	acquires := make(map[*types.Func]map[string]bool, len(direct))
	for fn, set := range direct {
		cp := make(map[string]bool, len(set))
		for k := range set {
			cp[k] = true
		}
		acquires[fn] = cp
	}
	for changed := true; changed; {
		changed = false
		for fn, sc := range byFunc {
			for _, cs := range sc.calls {
				for class := range acquires[cs.fn] {
					if !acquires[fn][class] {
						if acquires[fn] == nil {
							acquires[fn] = make(map[string]bool)
						}
						acquires[fn][class] = true
						changed = true
					}
				}
			}
		}
	}

	// Edges: anything acquired (directly or via a callee summary) inside
	// a held region. First witness per ordered class pair wins.
	type lockEdge struct {
		pos token.Pos
		pkg *Package
		via string
	}
	edges := make(map[[2]string]lockEdge)
	addEdge := func(from, to string, e lockEdge) {
		key := [2]string{from, to}
		if old, ok := edges[key]; !ok || e.pos < old.pos {
			edges[key] = e
		}
	}
	for _, sc := range scopes {
		regions := pairRegions(append([]lockEvent(nil), sc.events...), sc.end)
		for _, r := range regions {
			for _, ev := range sc.events {
				if ev.acquire && r.from < ev.pos && ev.pos < r.to {
					addEdge(r.key, ev.key, lockEdge{pos: ev.pos, pkg: sc.pkg})
				}
			}
			for _, cs := range sc.calls {
				if !(r.from < cs.pos && cs.pos < r.to) {
					continue
				}
				for class := range acquires[cs.fn] {
					addEdge(r.key, class, lockEdge{pos: cs.pos, pkg: sc.pkg, via: funcDisplay(cs.fn)})
				}
			}
		}
	}

	// Transitive closure over the (small) class graph, then report every
	// edge that closes a cycle.
	classes := make(map[string]bool)
	for key := range edges {
		classes[key[0]] = true
		classes[key[1]] = true
	}
	reach := make(map[string]map[string]bool, len(classes))
	for a := range classes {
		reach[a] = make(map[string]bool)
	}
	for key := range edges {
		reach[key[0]][key[1]] = true
	}
	for k := range classes {
		for i := range classes {
			if !reach[i][k] {
				continue
			}
			for j := range classes {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}

	keys := make([][2]string, 0, len(edges))
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		from, to := key[0], key[1]
		if !reach[to][from] {
			continue
		}
		e := edges[key]
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (via call to %s)", e.via)
		}
		var msg string
		switch rev, hasRev := edges[[2]string{to, from}]; {
		case from == to:
			msg = fmt.Sprintf(
				"nested acquisition of lock class %s while another %s is held%s; instance order is unenforced and two goroutines can deadlock on the crossed pair",
				to, from, via)
		case hasRev:
			rp := rev.pkg.Fset.Position(rev.pos)
			msg = fmt.Sprintf(
				"lock order cycle: %s acquired while %s is held%s, but the opposite order occurs at %s:%d; acquire them in one consistent order",
				to, from, via, filepath.Base(rp.Filename), rp.Line)
		default:
			msg = fmt.Sprintf(
				"%s acquired while %s is held%s closes a lock-order cycle (%s already reaches %s through other acquisitions); acquire them in one consistent order",
				to, from, via, to, from)
		}
		facts.reports = append(facts.reports, moduleReport{e.pkg, Diagnostic{Pos: e.pos, Message: msg}})
	}
	return facts
}

// scanLockScope collects one body's lock events (class-keyed) and
// resolvable call sites, treating nested func literals as opaque.
func scanLockScope(pkg *Package, body *ast.BlockStmt) *lockScope {
	sc := &lockScope{end: body.End(), pkg: pkg}
	var walk func(n ast.Node, inDefer bool)
	collect := func(n ast.Node, inDefer bool) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			walk(x.Call, true)
			return false
		case *ast.CallExpr:
			if ev, ok := classLockCall(pkg.TypesInfo, x); ok {
				ev.deferred = inDefer && !ev.acquire
				sc.events = append(sc.events, ev)
				return true
			}
			if fn := calleeFunc(pkg.TypesInfo, x); fn != nil {
				sc.calls = append(sc.calls, lockCallSite{pos: x.Pos(), fn: fn})
			}
		}
		return true
	}
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			return collect(m, inDefer)
		})
	}
	walk(body, false)
	return sc
}

// classLockCall recognizes X.Lock/RLock/Unlock/RUnlock on a sync lock
// and keys the event by lock class rather than receiver expression.
// Locks on local variables have no stable class and are skipped.
func classLockCall(info *types.Info, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return lockEvent{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isSyncLock(tv.Type) {
		return lockEvent{}, false
	}
	class := lockClassOf(info, sel.X)
	if class == "" {
		return lockEvent{}, false
	}
	return lockEvent{
		pos:     call.Pos(),
		key:     class,
		acquire: name == "Lock" || name == "RLock",
	}, true
}

// lockClassOf names the lock class of a mutex expression:
// "pkg.Type.field" for a field of a named type, "pkg.var" for a
// package-level mutex, "" otherwise.
func lockClassOf(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if n := namedOrPointee(typeOf(info, e.X)); n != nil && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + e.Sel.Name
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}
