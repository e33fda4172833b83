// Package analysis is rpclint: a small static-analysis framework plus
// the eight analyzers that machine-enforce this repository's correctness
// invariants — the properties that make every figure of the reproduction
// credible but that no compiler checks:
//
//   - wallclock: deterministic packages must use the injected/virtual
//     clock, never the wall clock, or golden tests stop being
//     byte-replayable from a seed.
//   - rngsource: randomness must flow from a threaded, seed-derived
//     *rand.Rand; the global math/rand source is process-wide mutable
//     state that breaks replay (and crypto/rand belongs to internal/secure
//     alone).
//   - lockheld: no blocking channel operations, network I/O, or RPC
//     issue/dispatch while a sync.Mutex/RWMutex is held — the stack's hot
//     paths serialize on these locks.
//   - statuserr: errors crossing the stubby public boundary must be
//     canonical *Status errors so each span's code (and the per-code
//     Monarch series keyed by it) classifies every failure.
//   - sinkobserve: streaming accumulator observe methods must not retain
//     their argument, protecting the 0 allocs/op observe path.
//   - bufown: pooled buffers (wire.GetBuf and friends) must be released,
//     returned, or handed off on every path — use-after-release,
//     double-release, leaks, and undocumented escapes into fields or
//     goroutines are flagged, with //rpclint:owns and //rpclint:transfers
//     making sanctioned transfers machine-checked (DESIGN.md §15).
//   - goroleak: a `go` statement must not spawn a condition-less loop
//     with no shutdown edge; such goroutines outlive their spawner and
//     accumulate under churn.
//   - lockorder: the module-wide mutex acquisition graph must be
//     acyclic — opposite-order acquisitions of two lock classes are a
//     latent deadlock even when no test hits the interleaving.
//
// The first five are single-package syntactic/type-based checks; the
// last three are interprocedural, building per-function summaries
// (ownership, lock sets) across every package of one run.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is hand-rolled on go/ast and go/types:
// this module is intentionally dependency-free, so rpclint loads and
// type-checks packages itself (see Loader) using the standard library's
// source importer for out-of-module imports.
//
// Any diagnostic can be suppressed with a justified directive on the
// flagged line or the line above:
//
//	//rpclint:ignore <analyzer[,analyzer...]> <reason>
//
// The reason is mandatory; a reason-less directive does not suppress and
// is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one named check. Mirrors x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rpclint:ignore directives.
	Name string
	// Doc is a one-paragraph description, shown by `rpclint -help`.
	Doc string
	// Run applies the check to one package and reports findings via
	// pass.Report.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Mod shares cross-package state (function index, ownership and lock
	// summaries) between the passes of one RunAnalyzers invocation. The
	// dataflow analyzers (bufown, goroleak, lockorder) resolve callees and
	// summaries through it.
	Mod *Module
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding within a package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzers returns the full rpclint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		RngsourceAnalyzer,
		LockheldAnalyzer,
		StatuserrAnalyzer,
		SinkobserveAnalyzer,
		BufownAnalyzer,
		GoroleakAnalyzer,
		LockorderAnalyzer,
	}
}

// PackageList is a list of package-path patterns. An entry matches an
// import path if it equals the path, is a path-segment suffix of it
// ("internal/sim" matches "rpcscale/internal/sim"), or is a parent of it
// (subpackages match).
type PackageList struct {
	entries []string
}

// NewPackageList builds a list from its default entries.
func NewPackageList(entries ...string) *PackageList {
	return &PackageList{entries: entries}
}

// String returns the entries comma-separated, as analyzer docs show them.
func (p *PackageList) String() string {
	return strings.Join(p.entries, ",")
}

// Set replaces the entries with a comma-separated list; tests use it to
// point an analyzer at fixture packages.
func (p *PackageList) Set(s string) error {
	p.entries = nil
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			p.entries = append(p.entries, e)
		}
	}
	return nil
}

// Entries returns a copy of the current pattern list, so a test that
// Sets the list can restore it.
func (p *PackageList) Entries() []string {
	return append([]string(nil), p.entries...)
}

// Match reports whether path matches any entry.
func (p *PackageList) Match(path string) bool {
	for _, e := range p.entries {
		if path == e ||
			strings.HasSuffix(path, "/"+e) ||
			strings.HasPrefix(path, e+"/") {
			return true
		}
	}
	return false
}

// FuncList is a list of function patterns. An entry is
// "pkg.Func" or "pkg.Type.Method", where pkg matches an import path by
// equality or path-segment suffix ("wire.GetBuf" matches both
// "rpcscale/internal/wire" and a fixture package named "wire"), and the
// receiver type is matched with pointers unwrapped.
type FuncList struct {
	entries []string
}

// NewFuncList builds a list from its default entries.
func NewFuncList(entries ...string) *FuncList {
	return &FuncList{entries: entries}
}

// String returns the entries comma-separated, as analyzer docs show them.
func (l *FuncList) String() string {
	return strings.Join(l.entries, ",")
}

// Match reports whether fn matches any entry.
func (l *FuncList) Match(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	pkg := funcPkgPath(fn)
	recv := recvTypeName(fn)
	for _, e := range l.entries {
		parts := strings.Split(e, ".")
		var ePkg, eRecv, eName string
		switch len(parts) {
		case 2:
			ePkg, eName = parts[0], parts[1]
		case 3:
			ePkg, eRecv, eName = parts[0], parts[1], parts[2]
		default:
			continue
		}
		if eName != fn.Name() || eRecv != recv {
			continue
		}
		if pkg == ePkg || strings.HasSuffix(pkg, "/"+ePkg) {
			return true
		}
	}
	return false
}

// recvTypeName returns the name of fn's receiver type (pointers
// unwrapped), or "" for package-level functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedOrPointee(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// StringSet is a set of names.
type StringSet struct {
	names map[string]bool
}

// NewStringSet builds a set from its default members.
func NewStringSet(names ...string) *StringSet {
	s := &StringSet{names: make(map[string]bool)}
	for _, n := range names {
		s.names[n] = true
	}
	return s
}

// String returns the names sorted and comma-separated, as analyzer docs
// show them.
func (s *StringSet) String() string {
	names := make([]string, 0, len(s.names))
	for n := range s.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// Has reports membership.
func (s *StringSet) Has(name string) bool { return s.names[name] }

// calleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a declared func (e.g. a func-typed field,
// a conversion, or a builtin).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or "".
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPackageLevel reports whether fn is a package-level function (not a
// method).
func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isRefType reports whether storing a value of type t aliases memory the
// source expression also references: pointers, slices, maps, channels,
// functions, and interfaces retain; value copies (including strings,
// which are immutable) do not.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// namedOrPointee unwraps one level of pointer and returns the named type
// beneath, or nil.
func namedOrPointee(t types.Type) *types.Named {
	if t == nil {
		return nil // an expression with no type: a package name, say
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isSyncLock(t types.Type) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := n.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}
