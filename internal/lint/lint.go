// Package lint implements lobster-lint, the project-specific static
// analysis suite. Lobster's planner assumes the sample access order and
// tier timings it simulates are exactly what the runtime replays;
// nondeterminism leaking into the simulation/planning packages, or
// goroutine/lock bugs in the concurrent runtime, silently invalidate the
// load-balance results. These analyzers turn those conventions into
// machine-checked gates:
//
//	determinism  no wall clocks, global RNG, or map-order-dependent
//	             output in sim/plan packages
//	goroutine    every goroutine literal has a termination signal
//	             (test files included)
//	mutex        Lock/Unlock pairing, no lock copies, no blocking
//	             channel ops under a lock (test files included)
//	errcheck     no silently dropped error returns
//	boundedchan  hot-path request queues are bounded
//	obsnaming    metric registrations follow lobster_<component>_<metric>
//	             with the family-specific suffix rules
//	lockorder    module-wide lock-ordering graph over the call graph:
//	             cycles (potential deadlocks), interprocedural blocking
//	             channel ops under a lock, same-receiver re-locking
//	hotpath      //lint:hotpath functions and everything they call must
//	             not allocate (make/new/append, string concat or
//	             conversion, interface boxing, closures, go, fmt)
//
// The framework uses only the standard library (go/parser, go/ast,
// go/types). Per-package analyzers are pure functions from a
// type-checked package to findings; module analyzers receive a *Module
// (all packages plus a static call graph, callgraph.go) and follow
// facts across package boundaries. Both kinds are unit-testable against
// in-memory fixture sources. Deliberate exceptions are annotated in the
// source as
//
//	//lint:allow <check-id> <justification>
//
// which suppresses findings of that check on the directive's own line
// and the line directly below it. A directive without a justification —
// or one that suppresses nothing — is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"

	"repro/internal/par"
)

// Check IDs, as reported in findings and accepted by //lint:allow.
const (
	idDeterminism = "determinism"
	idGoroutine   = "goroutine"
	idMutex       = "mutex"
	idErrcheck    = "errcheck"
	idBoundedChan = "boundedchan"
	idObsNaming   = "obsnaming"
	idLockOrder   = "lockorder"
	idHotPath     = "hotpath"
	idDirective   = "directive"
)

// Finding is one analyzer hit, positioned for file:line reporting.
type Finding struct {
	Check   string         // analyzer ID, e.g. "determinism"
	Pos     token.Position // file:line:col of the offending node
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Package is one type-checked package of the module under analysis.
// Files holds the production sources; TestFiles the _test.go files
// type-checked alongside them (or, for an external foo_test package,
// all of its files). Analyzers receive it read-only.
type Package struct {
	Path      string // import path, e.g. "repro/internal/pipeline"
	Fset      *token.FileSet
	Files     []*ast.File
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info
	// TestPkg/TestInfo come from the augmented (production + in-package
	// test files) type-check; nil when the package has no in-package
	// tests, or when TestFiles is an external test package checked on
	// its own (then Pkg/Info cover it). Kept separate from Pkg/Info so
	// the call graph and the production-only checks keep the object
	// identities of the production check, which is what other packages'
	// imports resolved against.
	TestPkg  *types.Package
	TestInfo *types.Info
}

func (p *Package) position(n ast.Node) token.Position { return p.Fset.Position(n.Pos()) }

func (p *Package) finding(check string, n ast.Node, format string, args ...any) Finding {
	return Finding{Check: check, Pos: p.position(n), Message: fmt.Sprintf(format, args...)}
}

// allFiles returns production and test files together, for scans that
// only need positions and comments (the allow directive scan).
func (p *Package) allFiles() []*ast.File {
	if len(p.TestFiles) == 0 {
		return p.Files
	}
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return out
}

// views returns the type-consistent (Files, Info) universes of the
// package for the checks that extend to test code: the production
// files with the production info, plus — when test files exist — a
// shallow view pairing the test files with the info that actually
// type-checked them. Each view is a *Package, so the per-node helpers
// work unchanged.
func (p *Package) views() []*Package {
	out := []*Package{p}
	if len(p.TestFiles) == 0 {
		return out
	}
	tv := &Package{Path: p.Path, Fset: p.Fset, Files: p.TestFiles, Pkg: p.TestPkg, Info: p.TestInfo}
	if tv.Info == nil { // external test package: one self-contained check
		tv.Pkg, tv.Info = p.Pkg, p.Info
	}
	return append(out, tv)
}

// Analyzer is one named check. Exactly one of Run (per-package pure
// function) or RunModule (whole-module, call-graph-aware) is set.
// Tests marks analyzers that also cover _test.go files.
type Analyzer struct {
	ID        string
	Doc       string
	Run       func(*Package) []Finding
	RunModule func(*Module) []Finding
	Tests     bool
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, Goroutine, Mutex, Errcheck, BoundedChan, ObsNaming, LockOrder, HotPath}
}

// Timing is one analyzer's cumulative wall time across the run (summed
// over packages for per-package analyzers).
type Timing struct {
	ID   string
	Wall time.Duration
}

// Run applies the analyzers to every package, filters findings through
// the //lint:allow directives, and returns the survivors sorted by
// position. Malformed and stale directives are reported as findings of
// check "directive".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	fs, _ := RunConcurrent(pkgs, analyzers, nil)
	return fs
}

// RunConcurrent is Run with the units of work — (per-package analyzer ×
// package) pairs and whole-module analyzers — fanned out over pool, and
// per-analyzer wall times reported. Findings are byte-identical to a
// serial run for any pool width: results are slotted by task index and
// allow-filtered in that fixed order. A nil pool runs serially.
func RunConcurrent(pkgs []*Package, analyzers []*Analyzer, pool *par.Pool) ([]Finding, []Timing) {
	allows := newAllowSet()
	var out []Finding
	for _, p := range pkgs {
		out = append(out, allows.collect(p)...)
	}

	// Build the task list in deterministic order: per-package analyzers
	// in suite order over the sorted packages, then module analyzers.
	type task struct {
		a   *Analyzer
		pkg *Package // nil => module task
	}
	var tasks []task
	needModule := false
	for _, a := range analyzers {
		if a.RunModule != nil {
			needModule = true
			tasks = append(tasks, task{a: a})
			continue
		}
		for _, p := range pkgs {
			tasks = append(tasks, task{a: a, pkg: p})
		}
	}
	var mod *Module
	if needModule {
		mod = NewModule(pkgs)
	}

	results := make([][]Finding, len(tasks))
	elapsed := make([]time.Duration, len(tasks))
	// Analyzer runs only read the type-checked packages (go/types is
	// safe for concurrent reads), so tasks are independent.
	_ = pool.ForEach(len(tasks), func(i int) error {
		start := time.Now()
		if tasks[i].pkg != nil {
			results[i] = tasks[i].a.Run(tasks[i].pkg)
		} else {
			results[i] = tasks[i].a.RunModule(mod)
		}
		elapsed[i] = time.Since(start)
		return nil
	})

	wall := map[string]time.Duration{}
	for i, t := range tasks {
		wall[t.a.ID] += elapsed[i]
		for _, f := range results[i] {
			if allows.permits(f) {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, allows.staleFindings(analyzers)...)

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, Timing{ID: a.ID, Wall: wall[a.ID]})
	}
	return out, timings
}

// hasSuffixPkg reports whether the package path ends with one of the
// given module-relative suffixes (so checks scoped to e.g.
// "internal/pipeline" work regardless of the module name).
func hasSuffixPkg(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || len(path) > len(s) && path[len(path)-len(s)-1] == '/' && path[len(path)-len(s):] == s {
			return true
		}
	}
	return false
}

// typeString renders a type compactly for messages.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
