package analysis

import (
	"go/ast"
	"go/types"
)

// DeterministicPackages lists the packages whose behavior must be a pure
// function of their inputs and seed: the simulation, the figure
// accumulators, the generator, the fault plane, and the statistics
// kernels. Golden tests replay these byte-for-byte, which a single wall
// clock read would break.
var DeterministicPackages = NewPackageList(
	"rpcscale/internal/sim",
	"rpcscale/internal/core",
	"rpcscale/internal/workload",
	"rpcscale/internal/faultplane",
	"rpcscale/internal/stats",
)

// wallclockBanned are the time package entry points that read or depend
// on the wall clock (or the runtime timer heap). Pure constructors like
// time.Date and time.Duration arithmetic are fine.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallclockAnalyzer forbids wall-clock access in deterministic packages.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Sleep/After/NewTimer/... in deterministic packages " +
		"(" + DeterministicPackages.String() + "); thread the virtual clock " +
		"(sim.Engine.Now, an injected now func) instead, so seeded runs replay byte-for-byte",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	if !DeterministicPackages.Match(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || funcPkgPath(fn) != "time" || !isPackageLevel(fn) {
				return true
			}
			if wallclockBanned[fn.Name()] {
				pass.Reportf(id.Pos(),
					"time.%s in deterministic package %s: use the injected clock (virtual time) so seeded runs replay byte-for-byte",
					fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
