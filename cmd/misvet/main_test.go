package main

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestList checks -list names every analyzer in the suite, one per line.
func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	names := []string{"determinism", "maprange", "hotalloc", "draworder"}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
	if lines := strings.Count(out.String(), "\n"); lines != len(names) {
		t.Errorf("-list printed %d lines, want %d:\n%s", lines, len(names), out.String())
	}
}

// TestUnknownAnalyzer checks -only rejects names not in the suite before
// any loading happens, and that the error lists the valid names so the
// user does not need a second -list invocation.
func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nonesuch"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr: %s", errOut.String())
	}
	for _, name := range []string{"valid analyzers:", "determinism", "draworder"} {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("usage error missing %q:\n%s", name, errOut.String())
		}
	}
	if !strings.Contains(errOut.String(), "usage: misvet") {
		t.Errorf("usage not printed:\n%s", errOut.String())
	}
}

// TestBadFlag checks flag errors exit with usage status.
func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestModuleCleanJSON runs the real suite over the module: the tree must
// be clean, so -json emits an empty array and the exit status is 0. This
// is the CLI-level half of internal/lint's TestModuleClean.
func TestModuleCleanJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var out, errOut strings.Builder
	if code := run([]string{"-C", "../..", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("expected empty JSON findings, got: %s", got)
	}
	// The clean run still has advisory escapes; the summary reports them.
	if !strings.Contains(errOut.String(), "advisory-suppressed") {
		t.Errorf("summary missing advisory count: %s", errOut.String())
	}
}

// TestFilterPatterns checks pattern filtering is prefix-based on
// module-relative files, with "./..." keeping everything.
func TestFilterPatterns(t *testing.T) {
	diags := []lint.Diagnostic{
		{Analyzer: "determinism", File: "internal/congest/driver.go", Line: 1, Message: "m"},
		{Analyzer: "maprange", File: "internal/mis/metivier/metivier.go", Line: 2, Message: "m"},
	}
	if got := filterPatterns(diags, nil); len(got) != 2 {
		t.Errorf("no patterns: kept %d, want 2", len(got))
	}
	if got := filterPatterns(diags, []string{"./..."}); len(got) != 2 {
		t.Errorf("./...: kept %d, want 2", len(got))
	}
	got := filterPatterns(diags, []string{"./internal/mis/..."})
	if len(got) != 1 || got[0].File != "internal/mis/metivier/metivier.go" {
		t.Errorf("./internal/mis/...: got %v", got)
	}
	if got := filterPatterns(diags, []string{"./internal/congest"}); len(got) != 1 {
		t.Errorf("exact package: kept %d, want 1", len(got))
	}
	// A trailing slash (shell tab completion) must not defeat the prefix
	// match — it used to silently filter everything out, reporting a
	// false "0 finding(s)" for the package.
	if got := filterPatterns(diags, []string{"./internal/congest/"}); len(got) != 1 {
		t.Errorf("trailing slash: kept %d, want 1", len(got))
	}
	if got := filterPatterns(diags, []string{"./internal/mis/metivier/"}); len(got) != 1 {
		t.Errorf("trailing slash subpackage: kept %d, want 1", len(got))
	}
	if got := filterPatterns(diags, []string{"./internal/exp/..."}); len(got) != 0 {
		t.Errorf("unmatched pattern: kept %d, want 0", len(got))
	}
}
