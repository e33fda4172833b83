package analysis

import (
	"go/ast"
	"go/types"
)

// CryptoRandPackages lists the packages allowed to touch crypto/rand.
// Everything else derives randomness from the threaded seed so runs
// replay; key material generation is internal/secure's job alone.
var CryptoRandPackages = NewPackageList(
	"rpcscale/internal/secure",
)

// rngAllowedConstructors are the math/rand(/v2) package-level functions
// that build an explicit, seedable source — the approved way to obtain
// randomness. Everything else at package level draws from the shared
// global source.
var rngAllowedConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

// RngsourceAnalyzer forbids the global math/rand source everywhere and
// crypto/rand outside its allowed packages.
var RngsourceAnalyzer = &Analyzer{
	Name: "rngsource",
	Doc: "forbid the process-global math/rand source (rand.Intn, rand.Float64, rand.Seed, ...) — " +
		"thread a *rand.Rand built from a derived seed instead — and forbid crypto/rand outside " +
		CryptoRandPackages.String() + "; both are unseedable shared state that breaks deterministic replay",
	Run: runRngsource,
}

func runRngsource(pass *Pass) error {
	cryptoOK := CryptoRandPackages.Match(pass.Pkg.Path())
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				fn, ok := obj.(*types.Func)
				if !ok || !isPackageLevel(fn) {
					return true // methods on a threaded *rand.Rand are the point
				}
				if rngAllowedConstructors[fn.Name()] {
					return true
				}
				pass.Reportf(id.Pos(),
					"global math/rand source (%s.%s): thread a *rand.Rand derived from the run seed instead, so results replay",
					obj.Pkg().Name(), fn.Name())
			case "crypto/rand":
				if cryptoOK {
					return true
				}
				if _, isType := obj.(*types.TypeName); isType {
					return true
				}
				pass.Reportf(id.Pos(),
					"crypto/rand outside %s: entropy is not replayable; derive randomness from the run seed (crypto/rand belongs to internal/secure alone)",
					CryptoRandPackages.String())
			}
			return true
		})
	}
	return nil
}
