package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"rpcscale/internal/analysis"
	"rpcscale/internal/analysis/analysistest"
)

// overrideList points a package list at fixture import
// paths for one test, restoring the real configuration afterwards.
func overrideList(t *testing.T, list *analysis.PackageList, entries string) {
	t.Helper()
	old := strings.Join(list.Entries(), ",")
	if err := list.Set(entries); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { list.Set(old) })
}

func TestWallclock(t *testing.T) {
	overrideList(t, analysis.DeterministicPackages, "wallclock/det")
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.WallclockAnalyzer},
		"wallclock/det", "wallclock/free")
}

func TestRngsource(t *testing.T) {
	overrideList(t, analysis.CryptoRandPackages, "rngsource/allowed")
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.RngsourceAnalyzer},
		"rngsource", "rngsource/allowed")
}

func TestLockheld(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.LockheldAnalyzer},
		"lockheld")
}

func TestStatuserr(t *testing.T) {
	overrideList(t, analysis.StatusBoundaryPackages, "statuserr")
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.StatuserrAnalyzer},
		"statuserr")
}

func TestSinkobserve(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.SinkobserveAnalyzer},
		"sinkobserve")
}

// TestBufown covers the ownership dataflow: leak/use-after-release/
// double-release true positives, the //rpclint:owns and
// //rpclint:transfers vocabulary (including a malformed directive),
// inferred alias and release summaries, and suppression placement. The
// fixture's bufown/wire package matches the default wire.* seeds by
// path-segment suffix, so no flag overrides are needed.
func TestBufown(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.BufownAnalyzer},
		"bufown")
}

func TestGoroleak(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.GoroleakAnalyzer},
		"goroleak")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		[]*analysis.Analyzer{analysis.LockorderAnalyzer},
		"lockorder")
}

// TestSuppression runs the full suite over the suppress fixture: justified
// directives (line-above, same-line, other-analyzer, "all") silence their
// findings, while reason-less and analyzer-less directives suppress
// nothing and are reported themselves.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Analyzers(), "suppress")
}

// TestRepoClean is the machine-enforced invariant itself: the full
// analyzer suite over the whole module must report nothing — every
// violation is either fixed or carries a justified //rpclint:ignore.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader, err := analysis.NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the module", len(pkgs))
	}
	findings, err := analysis.RunAnalyzers(pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not rpclint-clean: %s", f)
	}
}
