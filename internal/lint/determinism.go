package lint

import (
	"go/ast"
	"go/types"
)

// determinismScope is the set of packages whose outputs must be a pure
// function of their inputs: the offline planner simulates exactly what
// the runtime will replay (PAPER.md §3), so a wall clock, the global
// RNG, or map iteration order leaking into a plan silently breaks the
// load-balance guarantee. Matched by module-relative suffix so fixtures
// and renamed modules both work.
var determinismScope = []string{
	"internal/pipeline",
	"internal/distcache",
	"internal/plan",
	"internal/perfmodel",
	"internal/access",
	"internal/cache",
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the shared, seed-ambient source. Explicitly
// seeded generators (rand.New(rand.NewSource(seed))) are fine — that is
// how the samplers get reproducible shuffles.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// Determinism forbids nondeterminism sources in simulation/planning
// packages: wall-clock reads, global-RNG draws, and map iteration that
// feeds order-sensitive output (append to an outer slice, a channel
// send, or formatted printing).
var Determinism = &Analyzer{
	ID: idDeterminism,
	Doc: "sim/plan packages must be deterministic: no time.Now/Since, " +
		"no math/rand global functions, no map-range feeding ordered output",
	Run: runDeterminism,
}

func runDeterminism(p *Package) []Finding {
	if !hasSuffixPkg(p.Path, determinismScope) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				if fn == nil {
					return true
				}
				switch {
				case isStdFunc(fn, "time", "Now"), isStdFunc(fn, "time", "Since"), isStdFunc(fn, "time", "Until"):
					out = append(out, p.finding(idDeterminism, n,
						"wall-clock read time.%s in deterministic package %s; use the virtual clock (sim.Engine.Now) or take the instant as a parameter",
						fn.Name(), p.Path))
				}
			case *ast.SelectorExpr:
				if f := randGlobal(p.Info, n); f != nil {
					out = append(out, p.finding(idDeterminism, n,
						"global RNG %s.%s in deterministic package %s; draw from an explicitly seeded *rand.Rand instead",
						f.Pkg().Name(), f.Name(), p.Path))
				}
			case *ast.RangeStmt:
				out = append(out, mapRangeFindings(p, n)...)
			}
			return true
		})
	}
	return out
}

// randGlobal resolves sel to a package-level math/rand function drawing
// from the shared source, or nil.
func randGlobal(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil // method on *rand.Rand: explicitly seeded, fine
	}
	if !globalRandFuncs[fn.Name()] {
		return nil // New, NewSource, NewZipf...: constructors are fine
	}
	return fn
}

// mapRangeFindings flags `for ... range m` over a map whose body feeds
// order-sensitive sinks. Per-key updates (counting, deleting, rewriting
// m[k]) are order-independent and pass; building a slice, sending on a
// channel, or printing inherits the randomized iteration order.
func mapRangeFindings(p *Package, rs *ast.RangeStmt) []Finding {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil
	}
	var out []Finding
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(p.Info, n, "append") && len(n.Args) > 0 {
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && !declaredWithin(obj, rs) {
						out = append(out, p.finding(idDeterminism, n,
							"append to %s inside range over map %s: slice order depends on map iteration order; collect and sort keys first",
							id.Name, types.ExprString(rs.X)))
					}
				}
				return true
			}
			if fn := calleeFunc(p.Info, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "fmt" && isPkgLevel(fn) {
				out = append(out, p.finding(idDeterminism, n,
					"fmt.%s inside range over map %s: output order depends on map iteration order; iterate over sorted keys",
					fn.Name(), types.ExprString(rs.X)))
			}
		case *ast.SendStmt:
			out = append(out, p.finding(idDeterminism, n,
				"channel send inside range over map %s: delivery order depends on map iteration order; iterate over sorted keys",
				types.ExprString(rs.X)))
		}
		return true
	})
	return out
}
