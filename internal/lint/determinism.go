package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DeterminismAnalyzer enforces the core replay contract inside
// deterministic packages: no wall-clock reads, no math/rand, no
// sync/atomic operations whose results could feed program logic, and no
// goroutine spawns. Every driver must replay a run bit-identically from
// the seed alone; each of these constructs injects state the seed does
// not control.
//
// Escapes: the pool driver's wall-clock shard timings and the distributed
// fleet's transport timing and deadlines are documented as advisory-only
// and carry //lint:advisory directives at their use sites (see
// directives.go).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now/math/rand/sync-atomic/goroutines in deterministic packages",
	Run:  runDeterminism,
}

// forbiddenTimeFuncs are the wall-clock and timer entry points of package
// time. Pure types and constants (time.Duration, time.Microsecond) stay
// allowed: they denominate advisory metrics without reading a clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// forbiddenRandImports are the stdlib random sources; internal/rng is the
// only sanctioned randomness (splittable, seeded, draw-counted).
var forbiddenRandImports = map[string]bool{
	"math/rand": true, "math/rand/v2": true,
}

func runDeterminism(pass *Pass) {
	pkg := pass.Pkg
	if !pass.Module.Deterministic(pkg.Path) {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if path, err := strconv.Unquote(n.Path.Value); err == nil && forbiddenRandImports[path] {
					pass.Reportf(pkg, n.Pos(),
						"deterministic package imports %s; draw randomness from internal/rng streams instead", path)
				}
			case *ast.GoStmt:
				pass.Reportf(pkg, n.Pos(),
					"goroutine spawn in a deterministic package: scheduling order is not controlled by the run seed")
			case *ast.SelectorExpr:
				fn, ok := pkg.Info.Uses[n.Sel].(*types.Func)
				if !ok {
					return true
				}
				switch {
				case fn.Pkg() != nil && fn.Pkg().Path() == "time" && forbiddenTimeFuncs[fn.Name()]:
					pass.Reportf(pkg, n.Pos(),
						"call of time.%s in a deterministic package: wall-clock values are not replayable from the seed", fn.Name())
				case isAtomicOp(fn):
					pass.Reportf(pkg, n.Pos(),
						"sync/atomic operation %s in a deterministic package: atomics read cross-goroutine state the seed does not control", fn.Name())
				}
			}
			return true
		})
	}
}

// isAtomicOp reports whether fn is a sync/atomic package function or a
// method on one of its types (atomic.Int64.Load and friends).
func isAtomicOp(fn *types.Func) bool {
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}
