package lint

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// repoRoot is the root of the module this file belongs to.
func repoRoot() (string, error) {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("cannot locate test source file")
	}
	return FindModuleRoot(filepath.Dir(thisFile))
}

// loadRepo type-checks this module once for every test that needs the
// whole of it: each load takes seconds.
var loadRepo = sync.OnceValues(func() ([]*Package, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		return nil, fmt.Errorf("loading module: %w", err)
	}
	return pkgs, nil
})

// TestRepoIsLintClean is the self-check gate: the committed tree must
// pass its own static analysis. Any intentional exception must carry a
// //lint:allow directive with a justification; everything else is a
// regression.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded (%d); loader regression?", len(pkgs))
	}
	findings := Run(pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("repo is not lint-clean: %d finding(s); fix them or add //lint:allow <check> <why>", len(findings))
	}
}

// TestLoadModulePackages sanity-checks the stdlib-only loader against
// known packages of this module.
func TestLoadModulePackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for i, p := range pkgs {
		byPath[p.Path] = p
		if i > 0 && pkgs[i-1].Path >= p.Path {
			t.Fatalf("packages not sorted: %s before %s", pkgs[i-1].Path, p.Path)
		}
	}
	for _, want := range []string{"/internal/pipeline", "/internal/runtime", "/internal/lint", "/cmd/lobster-lint"} {
		p := byPath[modPath+want]
		if p == nil {
			t.Fatalf("package %s%s not loaded", modPath, want)
		}
		if p.Pkg == nil || p.Info == nil || len(p.Files) == 0 {
			t.Fatalf("package %s incompletely loaded", p.Path)
		}
		// Test files must be excluded: the gates police production code.
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if filepath.Base(name) == "selfcheck_test.go" {
				t.Fatalf("test file %s was loaded", name)
			}
		}
	}
	// In-package test files load into their own universe...
	lintPkg := byPath[modPath+"/internal/lint"]
	if len(lintPkg.TestFiles) == 0 || lintPkg.TestPkg == nil || lintPkg.TestInfo == nil {
		t.Fatal("internal/lint test files not loaded into the test universe")
	}
	// ...and external test packages (package foo_test) load as their own
	// *Package with no production files.
	xt := byPath[modPath+"/internal/cache_test"]
	if xt == nil {
		t.Fatal("external test package internal/cache_test not loaded")
	}
	if len(xt.Files) != 0 || len(xt.TestFiles) == 0 {
		t.Fatalf("xtest package shape wrong: %d prod files, %d test files",
			len(xt.Files), len(xt.TestFiles))
	}
}
