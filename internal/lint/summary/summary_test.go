package summary

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/load"
)

// newRepoPass loads a real module package and wraps it in a Pass whose
// LoadPackage hook resolves module-local import paths through the same
// loader — the wiring the driver installs.
func newRepoPass(t *testing.T, relDir string) *analysis.Pass {
	t.Helper()
	loader, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join(loader.ModuleDir, relDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("%s does not type-check: %v", relDir, terr)
	}
	a := &analysis.Analyzer{Name: "summarytest", Run: func(*analysis.Pass) error { return nil }}
	pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, func(analysis.Diagnostic) {})
	pass.Shared = analysis.NewShared()
	pass.LoadPackage = func(path string) (*analysis.PackageInfo, error) {
		rel, ok := strings.CutPrefix(path, loader.ModulePath+"/")
		if !ok {
			return nil, fmt.Errorf("not module-local: %s", path)
		}
		p, err := loader.LoadDir(filepath.Join(loader.ModuleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return &analysis.PackageInfo{Path: p.Path, Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info}, nil
	}
	return pass
}

// findCalleeIn scans the package's ASTs for a call whose static callee's
// full name contains needle, returning the callee as seen from this
// package's type-check.
func findCalleeIn(t *testing.T, pass *analysis.Pass, needle string) *types.Func {
	t.Helper()
	var found *types.Func
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && strings.HasSuffix(fn.FullName(), needle) {
				found = fn
				return false
			}
			return true
		})
	}
	if found == nil {
		t.Fatalf("no callee matching %q in %s", needle, pass.Pkg.Path())
	}
	return found
}

func TestResolveLocalFunction(t *testing.T) {
	pass := newRepoPass(t, "internal/deepsets")
	s := For(pass)

	fn := findCalleeIn(t, pass, "deepsets.Predictor).phiFor")
	d, ok := s.Resolve(fn)
	if !ok {
		t.Fatalf("Resolve(%s) failed for a same-package method", fn.FullName())
	}
	if d.Decl.Name.Name != "phiFor" {
		t.Errorf("resolved wrong decl: %s", d.Decl.Name.Name)
	}
}

func TestResolveCrossPackage(t *testing.T) {
	pass := newRepoPass(t, "internal/deepsets")
	s := For(pass)

	// nn.MLP.Infer as seen from deepsets' imported view of package nn:
	// a different types.Func object than nn's own load produces.
	fn := findCalleeIn(t, pass, "nn.MLP).Infer")
	d, ok := s.Resolve(fn)
	if !ok {
		t.Fatalf("Resolve(%s) failed to follow the import", fn.FullName())
	}
	if d.Decl.Name.Name != "Infer" || d.Pkg.Path != "setlearn/internal/nn" {
		t.Errorf("resolved to %s in %s", d.Decl.Name.Name, d.Pkg.Path)
	}
	if d.Decl.Body == nil {
		t.Error("resolved declaration has no body")
	}
	// The resolved object belongs to the loaded package's own type-check
	// but agrees on identity by full name.
	if d.Func.FullName() != fn.FullName() {
		t.Errorf("full-name mismatch: %s vs %s", d.Func.FullName(), fn.FullName())
	}
}

func TestResolveWithoutLoaderDegrades(t *testing.T) {
	pass := newRepoPass(t, "internal/deepsets")
	pass.LoadPackage = nil
	pass.Shared = analysis.NewShared() // fresh cache, no preloaded store
	s := For(pass)

	if _, ok := s.Resolve(findCalleeIn(t, pass, "nn.MLP).Infer")); ok {
		t.Error("cross-package Resolve should fail without a LoadPackage hook")
	}
	if _, ok := s.Resolve(findCalleeIn(t, pass, "deepsets.Predictor).phiFor")); !ok {
		t.Error("same-package Resolve must still work without a hook")
	}
}

func TestMemoSharedAcrossPasses(t *testing.T) {
	pass := newRepoPass(t, "internal/deepsets")
	s := For(pass)
	fn := findCalleeIn(t, pass, "deepsets.Predictor).phiFor")
	s.Memo("dom").Set(fn, 42)

	// A second pass over the same run's Shared sees the same store.
	pass2 := analysis.NewPass(pass.Analyzer, pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo, func(analysis.Diagnostic) {})
	pass2.Shared = pass.Shared
	v, ok := For(pass2).Memo("dom").Get(fn)
	if !ok || v != 42 {
		t.Errorf("memo not shared across passes: got %v, %v", v, ok)
	}
}

func TestFormatPos(t *testing.T) {
	pass := newRepoPass(t, "internal/deepsets")
	got := FormatPos(pass.Fset, pass.Files[0].Pos())
	if !strings.HasPrefix(got, "deepsets/") || !strings.Contains(got, ".go:") {
		t.Errorf("FormatPos = %q, want deepsets/<file>.go:<line>", got)
	}
}
