package lint

import "testing"

// TestModuleClean is the suite's own regression test: the real module
// must stay free of findings. This pins the fixes the analyzers forced
// (ftmetivier's map-clearing delete-loop is now clear()) and the advisory
// contract for the code that legitimately escapes (the pool driver's
// wall-clock timings, the distributed fleet's transport timing) — if an
// escape annotation is deleted, or a new violation lands, this test fails
// with the same file:line diagnostic misvet prints.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags, suppressed := Run(m, Suite())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	if suppressed == 0 {
		t.Error("no advisory-suppressed findings; the driver-timing and transport escapes should be exercised")
	}
	if m.Path != "repro" {
		t.Errorf("module path = %q, want %q", m.Path, "repro")
	}
}

// TestDeterministicScope pins the package scoping rules DESIGN.md
// documents: engine/protocol/substrate subtrees are bound, experiment
// infrastructure, binaries, examples, and the lint package itself are
// exempt.
func TestDeterministicScope(t *testing.T) {
	m := &Module{Path: "repro"}
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/congest", true},
		{"repro/internal/distrib", true},
		{"repro/internal/dynmis", true},
		{"repro/internal/mis", true},
		{"repro/internal/mis/metivier", true},
		{"repro/internal/rng", true},
		{"repro/internal/trace", true},
		{"repro/internal/faultsim", true},
		{"repro/internal/exp", false},
		{"repro/internal/exp/bench", false},
		{"repro/internal/lint", false},
		{"repro/cmd/misvet", false},
		{"repro/cmd/bench", false},
		{"repro/examples/demo", false},
		{"repro", false},
		{"repro/internal/unlisted", false},
	}
	for _, c := range cases {
		if got := m.Deterministic(c.path); got != c.want {
			t.Errorf("Deterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestDiagnosticString pins the clickable go-vet output format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "determinism", File: "internal/mis/m.go", Line: 42, Col: 9, Message: "call of time.Now"}
	want := "internal/mis/m.go:42:9: determinism: call of time.Now"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRel pins module-relative path computation.
func TestRel(t *testing.T) {
	m := &Module{Path: "repro"}
	if got := m.Rel("repro"); got != "" {
		t.Errorf("Rel(module root) = %q, want empty", got)
	}
	if got := m.Rel("repro/internal/congest"); got != "internal/congest" {
		t.Errorf("Rel = %q", got)
	}
	if got := m.Rel("other/pkg"); got != "other/pkg" {
		t.Errorf("Rel(foreign) = %q", got)
	}
}
