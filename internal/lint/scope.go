package lint

import "strings"

// Analyzer scoping: which packages the determinism contract binds.
//
// Two levels decide whether restricted constructs (wall clocks,
// math/rand, atomics, goroutines, map iteration) are flagged:
//
//  1. Package scope. Packages on the deterministic list below carry the
//     repo's bit-identical-replay contract: the engine, every MIS/matching
//     protocol, the dynamic-MIS maintainer, the distributed fleet
//     transport, the graph/forest/shatter
//     substrate, the splittable RNG,
//     the fault planner, the trace subsystem's deterministic event
//     machinery, and the paper's read-k accounting. Benchmark and
//     experiment infrastructure (internal/exp), binaries (cmd/...), and
//     examples are exempt: they may time, sample, and parallelize freely
//     because nothing replays them.
//  2. File scope. _test.go files are never loaded or analyzed: tests
//     may use math/rand and wall clocks to generate adversarial inputs,
//     and the runtime suites (cross-driver matrices, pinned fingerprints)
//     already catch a test that breaks determinism where it matters.
//
// A package is bound only when a deterministicScopes prefix covers it and
// no exemptScopes prefix does, so an unlisted internal/ package is not
// bound: TestScopeExhaustive fails until a new one is listed in either.
// DESIGN.md documents the same rules prose-side.

// deterministicScopes lists module-relative path prefixes bound by the
// determinism contract. A prefix covers the package and its subtree.
var deterministicScopes = []string{
	"internal/congest",
	"internal/core",
	"internal/distrib",
	"internal/dynmis",
	"internal/faultsim",
	"internal/forest",
	"internal/gen",
	"internal/graph",
	"internal/matching",
	"internal/mis",
	"internal/readk",
	"internal/rng",
	"internal/shatter",
	"internal/stats",
	"internal/trace",
}

// exemptScopes lists module-relative path prefixes that are never
// deterministic, even if a deterministic prefix would otherwise cover
// them. internal/lint itself is exempt: the analyzers run offline, not
// inside a replayed execution.
var exemptScopes = []string{
	"internal/exp",
	"internal/lint",
	"cmd",
	"examples",
}

// underScope reports whether rel is path or inside its subtree.
func underScope(rel, path string) bool {
	return rel == path || strings.HasPrefix(rel, path+"/")
}

// Deterministic reports whether the package at pkgPath is bound by the
// determinism contract.
func (m *Module) Deterministic(pkgPath string) bool {
	rel := m.Rel(pkgPath)
	for _, e := range exemptScopes {
		if underScope(rel, e) {
			return false
		}
	}
	for _, d := range deterministicScopes {
		if underScope(rel, d) {
			return true
		}
	}
	return false
}
