package main

import (
	"strings"
	"testing"
)

// TestBadGraphFlags checks that every flag combination the generators
// cannot build exits non-zero with an error naming the flag, before
// anything is written to stdout, instead of panicking or clamping.
func TestBadGraphFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-5"}, "n must be at least 1"},
		{[]string{"-n", "0"}, "n must be at least 1"},
		{[]string{"-family", "union", "-alpha", "0"}, "alpha must be at least 1"},
		{[]string{"-family", "gnp", "-p", "2"}, "p must be a probability"},
		{[]string{"-family", "gnp", "-p", "NaN"}, "p must be a probability"},
		{[]string{"-family", "rgg", "-p", "-1"}, "p (the radius) must be non-negative"},
		{[]string{"-family", "pa", "-alpha", "16", "-n", "16"}, "alpha must be in [1, n)"},
		{[]string{"-family", "pa", "-alpha", "0"}, "alpha must be in [1, n)"},
		{[]string{"-family", "nonesuch"}, `unknown family "nonesuch"`},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0, want an error", tc.args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout before rejecting its flags:\n%s", tc.args, out.String())
		}
		if !strings.Contains(errOut.String(), "error: "+tc.want) {
			t.Errorf("%v: stderr %q, want an error line naming %q", tc.args, errOut.String(), tc.want)
		}
	}
}

// TestRunVerifies checks a valid invocation builds its graph, runs the
// algorithm and reports the verified set.
func TestRunVerifies(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-family", "tree", "-n", "64", "-algo", "metivier"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"graph: n=64 m=63", "verified: MIS is independent and maximal"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}
