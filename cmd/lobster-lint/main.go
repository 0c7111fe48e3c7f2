// Command lobster-lint runs the project-specific static-analysis suite
// over the module: determinism gates on the simulation/planning
// packages, goroutine/mutex hygiene on the concurrent runtime (test
// files included), dropped errors, the bounded-queue contract, and the
// module-wide interprocedural analyses — lock-order deadlock detection
// and machine-checked zero-allocation hot paths. It is part of the
// tier-1 verification gate (see verify.sh).
//
// Usage:
//
//	lobster-lint [-list] [-check ids] [-json|-github] [-time] [-parallel n] [packages]
//
// Packages are module-relative patterns: "./..." (default, the whole
// module), "./internal/..." (a subtree), or "./internal/pipeline" (one
// package; its external test package, if any, rides along). Exit
// status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/lint"
	"repro/internal/par"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	checks := flag.String("check", "", "comma-separated analyzer IDs to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	timing := flag.Bool("time", false, "print per-analyzer wall time to stderr")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "analyzer worker count (1 = serial)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lobster-lint [flags] [packages]\n\n"+
			"Project static analysis: %d checks over every package of the module.\n", len(lint.Analyzers()))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.ID, a.Doc)
		}
		return
	}
	if *asJSON && *github {
		fatal(fmt.Errorf("-json and -github are mutually exclusive"))
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fatal(err)
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	modPath, err := lint.ModulePath(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err = filterPackages(pkgs, modPath, flag.Args())
	if err != nil {
		fatal(err)
	}

	var pool *par.Pool
	if *parallel > 1 {
		pool = par.NewPool(*parallel)
	}
	findings, timings := lint.RunConcurrent(pkgs, analyzers, pool)
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "lobster-lint: %-12s %8.1fms\n", tm.ID, float64(tm.Wall.Microseconds())/1e3)
		}
	}

	switch {
	case *asJSON:
		writeJSON(os.Stdout, root, findings)
	case *github:
		for _, f := range findings {
			// ::error annotations surface inline on the PR diff; paths
			// must be repo-relative.
			fmt.Printf("::error file=%s,line=%d,col=%d::[%s] %s\n",
				relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Message)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "lobster-lint: %d finding(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
}

// selectAnalyzers resolves a -check list against the registry; an
// unknown ID is an error, not a silently clean run.
func selectAnalyzers(spec string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if spec == "" {
		return all, nil
	}
	byID := map[string]*lint.Analyzer{}
	for _, a := range all {
		byID[a.ID] = a
	}
	var out []*lint.Analyzer
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		a := byID[id]
		if a == nil {
			return nil, fmt.Errorf("unknown check %q (run -list for the registry)", id)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-check selected no analyzers")
	}
	return out, nil
}

// jsonFinding is the -json wire shape, stable for tooling.
type jsonFinding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func writeJSON(w *os.File, root string, findings []lint.Finding) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Check: f.Check, File: relPath(root, f.Pos.Filename),
			Line: f.Pos.Line, Col: f.Pos.Column, Message: f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// relPath renders a finding position module-relative when possible.
func relPath(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// filterPackages keeps packages matching the command-line patterns
// ("./...", "./internal/...", "./internal/pipeline"). With no patterns
// everything is kept. An external test package ("<path>_test") matches
// wherever its package under test does. A pattern that matches no
// package is an error — a typo'd path must not pass as a clean run.
func filterPackages(pkgs []*lint.Package, modPath string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	match := func(rel, pat string) bool {
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
		if pat == "..." || pat == "." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			return rel == sub || strings.HasPrefix(rel, sub+"/")
		}
		return rel == pat
	}
	matched := make([]bool, len(patterns))
	var out []*lint.Package
	for _, p := range pkgs {
		// Module-relative path of the package ("" for the root package).
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, modPath), "/")
		if len(p.Files) == 0 && strings.HasSuffix(rel, "_test") {
			// package foo_test lives in foo's directory.
			rel = strings.TrimSuffix(rel, "_test")
		}
		keep := false
		for i, pat := range patterns {
			if match(rel, pat) {
				matched[i] = true
				keep = true
			}
		}
		if keep {
			out = append(out, p)
		}
	}
	for i, pat := range patterns {
		if !matched[i] {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lobster-lint:", err)
	os.Exit(2)
}
