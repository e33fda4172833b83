package analysis

import (
	"go/ast"
	"go/types"
)

// Module is the cross-package state shared by every pass of one
// RunAnalyzers invocation: the loaded packages plus lazily built
// interprocedural facts. `rpclint ./...` loads the whole module here.
type Module struct {
	Pkgs []*Package

	idx  *funcIndex
	own  *ownFacts
	lock *lockFacts
}

// declInfo locates one function declaration and the package (with its
// own TypesInfo) it belongs to.
type declInfo struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// funcIndex resolves *types.Func objects to their declarations across
// every package in the module. Object identity holds across packages
// because the standalone loader memoizes: the importing package and the
// declaring package see the same *types.Package.
type funcIndex struct {
	decls map[*types.Func]declInfo
}

// Index returns the module's function index, building it on first use.
func (m *Module) Index() *funcIndex {
	if m.idx != nil {
		return m.idx
	}
	idx := &funcIndex{decls: make(map[*types.Func]declInfo)}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					idx.decls[fn] = declInfo{decl: fd, pkg: pkg}
				}
			}
		}
	}
	m.idx = idx
	return idx
}

// lookup returns the declaration of fn, or a zero declInfo when fn is
// declared outside the module's loaded packages.
func (x *funcIndex) lookup(fn *types.Func) declInfo {
	if fn == nil {
		return declInfo{}
	}
	return x.decls[fn]
}

// eachDecl visits every indexed declaration in deterministic order
// (packages are sorted by path, files and decls in source order).
func (m *Module) eachDecl(visit func(fn *types.Func, fd *ast.FuncDecl, pkg *Package)) {
	idx := m.Index()
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if _, indexed := idx.decls[fn]; indexed {
					visit(fn, fd, pkg)
				}
			}
		}
	}
}

// moduleReport is a diagnostic computed module-wide but owned by one
// package: each pass emits only the reports filed under its own package,
// so suppression and ordering stay per-package.
type moduleReport struct {
	pkg *Package
	d   Diagnostic
}

// emitFor forwards the reports belonging to pass's package.
func emitFor(pass *Pass, reports []moduleReport) {
	for _, r := range reports {
		if r.pkg.Types == pass.Pkg {
			pass.Report(r.d)
		}
	}
}
