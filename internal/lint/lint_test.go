package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// Fixtures are type-checked in-memory against GOROOT source, sharing
// one FileSet and importer across the test binary (the importer caches
// the std packages it checks).
var (
	fixtureMu       sync.Mutex
	fixtureFset     = token.NewFileSet()
	fixtureImporter = importer.ForCompiler(fixtureFset, "source", nil)
	fixtureSeq      int
)

// checkFixture type-checks one in-memory source file as package pkgPath
// and wraps it for analysis.
func checkFixture(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	fixtureSeq++
	name := fmt.Sprintf("fixture%03d.go", fixtureSeq)
	f, err := parser.ParseFile(fixtureFset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	pkg, info, err := typecheck(pkgPath, fixtureFset, []*ast.File{f}, fixtureImporter)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	return &Package{Path: pkgPath, Fset: fixtureFset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// fixtureSrc is one package of a multi-package module fixture.
type fixtureSrc struct {
	path string // import path the package pretends to live at
	src  string
}

// importerFunc adapts a lookup function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkFixtureModule type-checks the given packages in order
// (dependencies first, so later packages can import earlier ones) and
// wraps them for module-level analysis. Imports outside the fixture
// set fall through to the shared GOROOT importer.
func checkFixtureModule(t *testing.T, srcs ...fixtureSrc) []*Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	local := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := local[path]; ok {
			return p, nil
		}
		return fixtureImporter.Import(path)
	})
	var pkgs []*Package
	for _, fs := range srcs {
		fixtureSeq++
		name := fmt.Sprintf("fixture%03d.go", fixtureSeq)
		f, err := parser.ParseFile(fixtureFset, name, fs.src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", fs.path, err)
		}
		pkg, info, err := typecheck(fs.path, fixtureFset, []*ast.File{f}, imp)
		if err != nil {
			t.Fatalf("typecheck fixture %s: %v", fs.path, err)
		}
		local[fs.path] = pkg
		pkgs = append(pkgs, &Package{Path: fs.path, Fset: fixtureFset, Files: []*ast.File{f}, Pkg: pkg, Info: info})
	}
	return pkgs
}

// moduleFindings runs one module analyzer over the fixture packages
// through the full pipeline and returns its findings.
func moduleFindings(t *testing.T, a *Analyzer, pkgs []*Package) []Finding {
	t.Helper()
	var got []Finding
	for _, f := range Run(pkgs, []*Analyzer{a}) {
		if f.Check == a.ID {
			got = append(got, f)
		}
	}
	return got
}

// checkFixtureWithTest builds a Package with both a production file and
// an in-package _test.go file, mirroring what LoadModule produces.
func checkFixtureWithTest(t *testing.T, pkgPath, src, testSrc string) *Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	fixtureSeq++
	name := fmt.Sprintf("fixture%03d.go", fixtureSeq)
	f, err := parser.ParseFile(fixtureFset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	tf, err := parser.ParseFile(fixtureFset, strings.TrimSuffix(name, ".go")+"_test.go", testSrc,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse test fixture: %v", err)
	}
	pkg, info, err := typecheck(pkgPath, fixtureFset, []*ast.File{f}, fixtureImporter)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	tpkg, tinfo, err := typecheck(pkgPath, fixtureFset, []*ast.File{f, tf}, fixtureImporter)
	if err != nil {
		t.Fatalf("typecheck augmented fixture: %v", err)
	}
	return &Package{Path: pkgPath, Fset: fixtureFset,
		Files: []*ast.File{f}, TestFiles: []*ast.File{tf},
		Pkg: pkg, Info: info, TestPkg: tpkg, TestInfo: tinfo}
}

// fixtureTest is one positive/negative case for a single analyzer.
type fixtureTest struct {
	name string
	pkg  string // package path the fixture pretends to live at
	src  string
	want int    // expected finding count for the analyzer under test
	grep string // substring expected in the first finding's message
}

// runFixtures drives an analyzer over each fixture through the full
// pipeline (including //lint:allow filtering) and checks the finding
// count for that analyzer's ID.
func runFixtures(t *testing.T, a *Analyzer, tests []fixtureTest) {
	t.Helper()
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := checkFixture(t, tc.pkg, tc.src)
			var got []Finding
			for _, f := range Run([]*Package{p}, []*Analyzer{a}) {
				if f.Check == a.ID {
					got = append(got, f)
				}
			}
			if len(got) != tc.want {
				t.Fatalf("got %d %s findings, want %d:\n%s", len(got), a.ID, tc.want, renderFindings(got))
			}
			if tc.grep != "" {
				if len(got) == 0 || !strings.Contains(got[0].Message, tc.grep) {
					t.Fatalf("first finding does not contain %q:\n%s", tc.grep, renderFindings(got))
				}
			}
		})
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

func TestFindingSortingAndString(t *testing.T) {
	p := checkFixture(t, "repro/internal/distcache", `package distcache
import "time"

func a() time.Time { return time.Now() }
func b() time.Time { return time.Now() }
`)
	fs := Run([]*Package{p}, Analyzers())
	if len(fs) != 2 {
		t.Fatalf("want 2 findings, got:\n%s", renderFindings(fs))
	}
	if fs[0].Pos.Line > fs[1].Pos.Line {
		t.Fatalf("findings not sorted by line:\n%s", renderFindings(fs))
	}
	s := fs[0].String()
	if !strings.Contains(s, ".go:4:") || !strings.Contains(s, "[determinism]") {
		t.Fatalf("finding rendering missing position or check id: %s", s)
	}
}

func TestAnalyzersRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, a := range Analyzers() {
		if a.ID == "" || a.Doc == "" || (a.Run == nil && a.RunModule == nil) {
			t.Fatalf("analyzer %+v incomplete", a)
		}
		if ids[a.ID] {
			t.Fatalf("duplicate analyzer id %q", a.ID)
		}
		ids[a.ID] = true
	}
	for _, want := range []string{"determinism", "goroutine", "mutex", "errcheck", "boundedchan", "obsnaming", "lockorder", "hotpath"} {
		if !ids[want] {
			t.Fatalf("missing analyzer %q", want)
		}
	}
}
