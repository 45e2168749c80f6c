// Package lint is misvet's analyzer suite: static checks over go/ast +
// go/types that enforce, at compile time, the determinism and CONGEST
// contracts this repository otherwise states only in prose and guards
// only with runtime tests (cross-driver matrices, pinned trace
// fingerprints, AllocsPerRun gates).
//
// The suite ships four analyzers. Two are syntactic, per-construct
// checks:
//
//   - determinism: no wall-clock reads, math/rand, sync/atomic operations,
//     or goroutine spawns inside deterministic packages;
//   - maprange: no bare `range` over a map in deterministic packages
//     (collect-and-sort the keys instead).
//
// Two are interprocedural, built on a shared call-graph core
// (callgraph.go):
//
//   - hotalloc: functions annotated //congest:hotpath — and the
//     statically-resolved callees they reach, to a bounded depth —
//     contain no allocating constructs (closures, make/new, heap-escaping
//     composite literals, appends to fresh slices, interface
//     conversions);
//   - draworder: rng.RNG draws are unreachable from worker goroutines
//     and per-shard contexts, so randomness is always consumed
//     coordinator-side in global sender order.
//
// All four check code paths that no test is sure to run. The wire and frame
// codec contracts, which tests can walk exhaustively, are go tests in the
// packages that own them (internal/mis/proto, internal/distrib).
//
// Escape hatches are comment directives (see directives.go): a finding on
// a line marked //lint:advisory — or inside a function whose doc comment
// carries the directive — is suppressed and counted, the documented
// contract for advisory-only code such as the pool driver's wall-clock
// timing. Scoping rules (which packages count as deterministic, and that
// _test.go files are never analyzed) live in scope.go.
//
// The package is stdlib-only by design: golang.org/x/tools is not a
// dependency, so cmd/misvet is a standalone checker rather than a `go vet
// -vettool` plugin, but it emits the same clickable file:line:col
// diagnostic format.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Analyzer is one named check. Run inspects the Pass's package (or, for
// module-level analyzers, every package of the module) and reports
// findings through Pass.Reportf.
type Analyzer struct {
	// Name is the short identifier used as the diagnostic prefix and by
	// misvet -only.
	Name string
	// Doc is a one-line description, shown by `misvet -list`.
	Doc string
	// ModuleLevel analyzers run once with Pass.Pkg == nil and inspect
	// pass.Module.Pkgs themselves; they exist for cross-package contracts
	// (e.g. draworder's call chains). Package-level analyzers run once
	// per loaded package.
	ModuleLevel bool
	// Run performs the check.
	Run func(*Pass)
}

// Pass carries one analyzer invocation's inputs and its report sink.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	// Pkg is the package under analysis; nil for module-level analyzers.
	Pkg *Package

	diags      *[]Diagnostic
	suppressed *int
}

// Diagnostic is one finding, positioned for go-vet-style output.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string `json:"analyzer"`
	// File is the offending file, relative to the module root.
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message states the violation.
	Message string `json:"message"`
}

// String renders the diagnostic in the clickable format go vet uses,
// prefixed with the analyzer name.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Reportf records a finding at pos inside pkg, unless an advisory
// directive suppresses it (in which case it is only counted).
func (p *Pass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := p.Module.Fset.Position(pos)
	if pkg.advisoryAt(p.Module, pos) {
		*p.suppressed++
		return
	}
	file := position.Filename
	if rel, err := filepath.Rel(p.Module.Root, file); err == nil && !filepath.IsAbs(rel) {
		file = filepath.ToSlash(rel)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns the full analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MaprangeAnalyzer,
		HotallocAnalyzer,
		DraworderAnalyzer,
	}
}

// Run executes the analyzers over the module and returns the findings
// sorted by position plus the number of advisory-suppressed findings.
func Run(m *Module, analyzers []*Analyzer) (diags []Diagnostic, suppressed int) {
	for _, a := range analyzers {
		if a.ModuleLevel {
			a.Run(&Pass{Analyzer: a, Module: m, diags: &diags, suppressed: &suppressed})
			continue
		}
		for _, pkg := range m.Pkgs {
			a.Run(&Pass{Analyzer: a, Module: m, Pkg: pkg, diags: &diags, suppressed: &suppressed})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, suppressed
}
