package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpcscale/internal/analysis"
)

// TestLoadResolvesRelativeToDir checks that relative patterns resolve
// against the loader's directory, as the go command's do against the
// working directory: "./..." from internal/wire is that subtree only.
func TestLoadResolvesRelativeToDir(t *testing.T) {
	loader, err := analysis.NewLoader(filepath.Join("..", "wire"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, pkg := range pkgs {
		if pkg.PkgPath != "rpcscale/internal/wire" && !strings.HasPrefix(pkg.PkgPath, "rpcscale/internal/wire/") {
			t.Errorf("./... from internal/wire loaded %s", pkg.PkgPath)
		}
	}
}

// TestLoadRejectsUnmatchedPattern checks that a pattern naming no
// package is an error rather than an empty, clean run.
func TestLoadRejectsUnmatchedPattern(t *testing.T) {
	loader, err := analysis.NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{"./nope", "rpcscale/internal/nope", "fmt"} {
		_, err := loader.Load(pat)
		if err == nil || !strings.Contains(err.Error(), "matched no packages") {
			t.Errorf("Load(%q) = %v, want a matched-no-packages error", pat, err)
		}
	}
}

// TestLoadRejectsBadPackages checks that a malformed build constraint,
// a type error and a directory holding two packages each fail the load,
// naming the package.
func TestLoadRejectsBadPackages(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"badtag/a.go":   "//go:build (\n\npackage badtag\n",
		"illtyped/a.go": "package illtyped\n\nvar X int = \"x\"\n",
		"mixed/a.go":    "package mixed\n",
		"mixed/b.go":    "package other\n",
	} {
		file := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := analysis.NewSourceLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{"badtag", "illtyped", "mixed"} {
		if _, err := loader.Load(pat); err == nil || !strings.Contains(err.Error(), pat) {
			t.Errorf("Load(%q) = %v, want an error naming the package", pat, err)
		}
	}
}
