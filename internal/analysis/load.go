package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("rpcscale/internal/sim"; for
	// GOPATH-style fixture roots, the path relative to the root).
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages without the go command or any
// external dependency. It reads the files `go build` and `go vet` would
// compile (build constraints evaluated against go/build's default
// context), and a package that does not type-check is a load error.
// Module-local imports are resolved by the loader itself (recursively,
// from source); everything else goes through the standard library's
// source importer, which reads GOROOT — so loading works offline and
// without export data.
type Loader struct {
	// root is the directory import paths map under: a module root
	// (go.mod present) or a GOPATH-style src directory for test fixtures.
	root string
	// modPath is the module path from go.mod, or "" for a GOPATH-style
	// root, where import paths are root-relative directories.
	modPath string
	// dir is the directory relative patterns ("./...") resolve against.
	dir string

	fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*loadResult
}

type loadResult struct {
	pkg *Package
	err error
}

// NewLoader builds a loader for the module enclosing dir (the nearest
// ancestor with a go.mod; without one, dir is treated as a GOPATH-style
// source root). Relative patterns resolve against dir, as the go
// command's do against the working directory.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath := findModule(abs)
	if root == "" {
		root, modPath = abs, ""
	}
	return newLoader(root, modPath, abs)
}

// NewSourceLoader builds a loader that treats dir itself as a
// GOPATH-style source root, skipping module discovery. Fixture roots
// (testdata/src) live inside the repository, where NewLoader's ancestor
// walk would find the enclosing module's go.mod and resolve every
// pattern against the wrong root.
func NewSourceLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return newLoader(abs, "", abs)
}

func newLoader(root, modPath, dir string) (*Loader, error) {
	fset := token.NewFileSet()
	// The source importer type-checks GOROOT packages from source; with
	// cgo disabled it selects the pure-Go files, which is all the
	// analyzers need and the only configuration that works without
	// invoking the cgo tool.
	build.Default.CgoEnabled = false
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		root:    root,
		modPath: modPath,
		dir:     dir,
		fset:    fset,
		std:     std,
		cache:   make(map[string]*loadResult),
	}, nil
}

// findModule walks up from dir looking for go.mod; it returns the module
// root and module path, or "", "".
func findModule(dir string) (root, modPath string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if after, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(after)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// Load resolves patterns to packages and returns them type-checked, in
// deterministic (import path) order. A pattern is a directory relative
// to the loader's directory ("./internal/stubby", "."), an absolute
// directory, or an import path ("rpcscale/internal/sim"); a "/..."
// suffix adds every package beneath it. A pattern that matches no
// package is an error, as is a package that does not type-check.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	seen := make(map[string]bool)
	var pkgs []*Package
	for _, pat := range patterns {
		dirs, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		if len(dirs) == 0 {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
		for _, dir := range dirs {
			path := l.importPath(dir)
			if seen[path] {
				continue
			}
			seen[path] = true
			res := l.load(path, dir)
			if res.err != nil {
				return nil, fmt.Errorf("%s: %w", path, res.err)
			}
			pkgs = append(pkgs, res.pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// expand resolves one pattern to the package directories it names under
// root: directories with at least one buildable non-test .go file.
func (l *Loader) expand(pat string) ([]string, error) {
	base, recursive := strings.CutSuffix(pat, "/...")
	var dir string
	switch {
	case filepath.IsAbs(base):
		dir = base
	case build.IsLocalImport(base):
		dir = filepath.Join(l.dir, base)
	default:
		dir = l.dirFor(base)
	}
	if rel, err := filepath.Rel(l.root, dir); dir == "" || err != nil ||
		rel == ".." || strings.HasPrefix(rel, "../") {
		return nil, nil // not under root: no package of this module
	}
	if !recursive {
		names, err := goFiles(dir)
		if len(names) == 0 {
			return nil, err
		}
		return []string{dir}, nil
	}
	var dirs []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFiles(p)
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return err
	})
	return dirs, err
}

// goFiles lists, in name order, the non-test .go files of dir that
// go/build's default context selects — the files `go build` and `go vet`
// compile. A directory that does not exist holds none.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err) // err names the file
		}
		if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// importPath maps a package directory under root to its import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	switch {
	case l.modPath == "":
		return rel
	case rel == "":
		return l.modPath
	default:
		return l.modPath + "/" + rel
	}
}

// dirFor maps an import path to its directory under root, or "" when
// the path is not local.
func (l *Loader) dirFor(path string) string {
	if l.modPath == "" {
		// GOPATH-style root: a path is local when it names a directory.
		dir := filepath.Join(l.root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
		return ""
	}
	if path == l.modPath {
		return l.root
	}
	if after, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(after))
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load from
// source through the loader; everything else defers to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if local := l.dirFor(path); local != "" {
		res := l.load(path, local)
		if res.err != nil {
			return nil, res.err
		}
		return res.pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks one local package (memoized).
func (l *Loader) load(path, dir string) *loadResult {
	if res, ok := l.cache[path]; ok {
		return res
	}
	// Mark in-progress to fail fast on import cycles instead of
	// recursing forever.
	l.cache[path] = &loadResult{err: fmt.Errorf("import cycle through %s", path)}
	res := l.check(path, dir)
	l.cache[path] = res
	return res
}

func (l *Loader) check(path, dir string) *loadResult {
	names, err := goFiles(dir)
	if err != nil {
		return &loadResult{err: err}
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return &loadResult{err: err}
		}
		if len(files) > 0 && f.Name.Name != files[0].Name.Name {
			return &loadResult{err: fmt.Errorf("found packages %s and %s in %s",
				files[0].Name.Name, f.Name.Name, dir)}
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return &loadResult{err: fmt.Errorf("no Go files in %s", dir)}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// With no Error callback the checker stops at, and returns, the first
	// type error.
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return &loadResult{err: err}
	}
	return &loadResult{pkg: &Package{
		PkgPath:   path,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}}
}
