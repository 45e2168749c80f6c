package main

import (
	"strings"
	"testing"
)

// TestList checks -list names every experiment the harness runs, and
// none of the retired ones.
func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		ids[strings.Fields(line)[0]] = true
	}
	for _, id := range []string{"E1", "E9", "E16", "A1", "A5"} {
		if !ids[id] {
			t.Errorf("-list output missing %s:\n%s", id, out.String())
		}
	}
	for _, id := range []string{"E17", "E18", "E19", "E20", "E21"} {
		if ids[id] {
			t.Errorf("-list output names retired %s:\n%s", id, out.String())
		}
	}
	if len(ids) != 21 {
		t.Errorf("-list names %d experiments, want 21:\n%s", len(ids), out.String())
	}
}

// TestUsageErrors checks that input bench cannot run exits 2 before any
// experiment starts, naming the valid choices.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-quick", "-only", "E19"}, []string{`unknown experiment "E19"`, "valid IDs: E1, E2", "A5"}},
		{[]string{"-quick", "-only", "E14,nonesuch"}, []string{`"NONESUCH"`}},
		{[]string{"-quick", "-format", "json"}, []string{`unknown -format "json"`, "table, csv"}},
		{[]string{"-nonesuch"}, []string{"flag provided but not defined"}},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout before rejecting its input:\n%s", tc.args, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(errOut.String(), w) {
				t.Errorf("%v: stderr missing %q:\n%s", tc.args, w, errOut.String())
			}
		}
	}
}
