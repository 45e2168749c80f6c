package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/trace"
)

// writeTrace writes events to a JSONL file in dir and returns its path.
func writeTrace(t *testing.T, dir, name string, events []trace.Event) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := trace.NewJSONLSink(f)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceview runs one command and returns its exit code and output.
func traceview(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// field reads the integer pattern's first group captures from out.
func field(t *testing.T, out, pattern string) uint64 {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("summary has no %q:\n%s", pattern, out)
	}
	v, err := strconv.ParseUint(m[1], 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCommands writes two sequential Métivier runs into one JSONL file,
// as cmd/bench -trace does, and drives every command over it.
func TestCommands(t *testing.T) {
	var mem trace.MemorySink
	var rounds, messages uint64
	for _, seed := range []uint64{1, 2} {
		g := gen.UnionOfTrees(256, 2, rng.New(seed))
		_, res, err := metivier.Run(g, congest.Options{Seed: seed, Events: &mem})
		if err != nil {
			t.Fatal(err)
		}
		rounds += uint64(res.Rounds)
		messages += uint64(res.Messages)
	}
	dir := t.TempDir()
	path := writeTrace(t, dir, "run.jsonl", mem.Events)

	code, out, errOut := traceview("summary", path)
	if code != 0 {
		t.Fatalf("summary exit %d: %s", code, errOut)
	}
	if got := field(t, out, `in (\d+) runs`); got != 2 {
		t.Errorf("summary counts %d runs, want 2:\n%s", got, out)
	}
	if got := field(t, out, `total=(\d+)`); got != rounds {
		t.Errorf("summary counts %d rounds, want the runs' %d:\n%s", got, rounds, out)
	}
	if got := field(t, out, `delivered=(\d+)`); got != messages {
		t.Errorf("summary counts %d delivered, want the runs' %d:\n%s", got, messages, out)
	}
	if got, want := field(t, out, `fingerprint (0x[0-9a-f]+)`), trace.Fingerprint(mem.Events); got != want {
		t.Errorf("summary fingerprint %#x, want %#x", got, want)
	}

	if code, out, _ := traceview("diff", path, path); code != 0 {
		t.Errorf("diff of a trace against itself: exit %d, %s", code, out)
	}
	// Change one deterministic field in the second run: its first halt.
	bad := append([]trace.Event(nil), mem.Events...)
	starts, round := 0, int32(-1)
	for i := range bad {
		if bad[i].Type == trace.EvRoundStart && bad[i].Round == 0 {
			starts++
		}
		if starts == 2 && bad[i].Type == trace.EvHalt {
			bad[i].V++
			round = bad[i].Round
			break
		}
	}
	if round < 0 {
		t.Fatal("second run has no halt")
	}
	code, out, _ = traceview("diff", path, writeTrace(t, dir, "bad.jsonl", bad))
	if want := fmt.Sprintf("round %d,", round); code != 1 || !strings.Contains(out, want) {
		t.Errorf("diff against a changed halt: exit %d, %q, want exit 1 naming %q", code, out, want)
	}

	code, out, errOut = traceview("chrome", path)
	if code != 0 {
		t.Fatalf("chrome exit %d: %s", code, errOut)
	}
	if !json.Valid([]byte(out)) {
		t.Errorf("chrome output is not JSON:\n%.500s", out)
	}
}

// TestUsageErrors checks that a missing, unknown or retired command and a
// wrong file count exit 2 with the usage text.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nonesuch", "run.jsonl"},
		{"serve", "run.jsonl"},
		{"summary"},
		{"diff", "a.jsonl"},
	} {
		code, out, errOut := traceview(args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "Usage:") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 with usage on stderr", args, code, out, errOut)
		}
	}
}
