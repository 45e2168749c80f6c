package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func diag(analyzer, file, msg string, line int) Diagnostic {
	return Diagnostic{Analyzer: analyzer, File: file, Line: line, Col: 1, Message: msg}
}

// TestBaselineRoundTrip writes a baseline and reads it back.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	diags := []Diagnostic{
		diag("determinism", "a.go", "call of time.Now", 10),
		diag("maprange", "b.go", "range over map", 20),
	}
	if err := NewBaseline(diags).Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(b.Findings) != 2 || b.Version != 1 {
		t.Fatalf("round trip: got version %d with %d findings", b.Version, len(b.Findings))
	}
	fresh, absorbed, stale := b.Filter(diags)
	if len(fresh) != 0 || absorbed != 2 || len(stale) != 0 {
		t.Errorf("Filter over own findings: fresh=%d absorbed=%d stale=%d, want 0/2/0",
			len(fresh), absorbed, len(stale))
	}
}

// TestBaselineLineInsensitive checks a baselined finding survives the
// file shifting under it: matching ignores Line and Col.
func TestBaselineLineInsensitive(t *testing.T) {
	b := NewBaseline([]Diagnostic{diag("determinism", "a.go", "call of time.Now", 10)})
	fresh, absorbed, stale := b.Filter([]Diagnostic{diag("determinism", "a.go", "call of time.Now", 99)})
	if len(fresh) != 0 || absorbed != 1 || len(stale) != 0 {
		t.Errorf("line-shifted finding not absorbed: fresh=%d absorbed=%d stale=%d",
			len(fresh), absorbed, len(stale))
	}
}

// TestBaselineMultiset checks matching is budgeted: one baseline entry
// absorbs one finding, a second identical finding stays fresh.
func TestBaselineMultiset(t *testing.T) {
	d := diag("maprange", "a.go", "range over map", 5)
	b := NewBaseline([]Diagnostic{d})
	fresh, absorbed, stale := b.Filter([]Diagnostic{d, d})
	if len(fresh) != 1 || absorbed != 1 || len(stale) != 0 {
		t.Errorf("multiset budget: fresh=%d absorbed=%d stale=%d, want 1/1/0",
			len(fresh), absorbed, len(stale))
	}
}

// TestBaselineNil checks a nil baseline absorbs nothing.
func TestBaselineNil(t *testing.T) {
	var b *Baseline
	d := diag("hotalloc", "a.go", "make in a hot-path function", 3)
	fresh, absorbed, stale := b.Filter([]Diagnostic{d})
	if len(fresh) != 1 || absorbed != 0 || len(stale) != 0 {
		t.Errorf("nil baseline: fresh=%d absorbed=%d stale=%d, want 1/0/0",
			len(fresh), absorbed, len(stale))
	}
}

// TestBaselineStale checks that unmatched baseline entries surface as
// stale, in recorded order, with multiset budgeting: two entries and one
// matching finding leave exactly one stale entry.
func TestBaselineStale(t *testing.T) {
	fixed := diag("determinism", "gone.go", "call of time.Now", 7)
	kept := diag("maprange", "a.go", "range over map", 5)
	b := NewBaseline([]Diagnostic{fixed, kept, kept})
	fresh, absorbed, stale := b.Filter([]Diagnostic{kept})
	if len(fresh) != 0 || absorbed != 1 {
		t.Fatalf("fresh=%d absorbed=%d, want 0/1", len(fresh), absorbed)
	}
	if len(stale) != 2 {
		t.Fatalf("stale=%d, want 2 (the fixed entry and the extra duplicate)", len(stale))
	}
	seen := map[string]int{}
	for _, d := range stale {
		seen[baselineKey(d)]++
	}
	if seen[baselineKey(fixed)] != 1 || seen[baselineKey(kept)] != 1 {
		t.Errorf("stale entries wrong: %v", stale)
	}
}

// TestBaselineErrors checks the load-time validation paths.
func TestBaselineErrors(t *testing.T) {
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(bad); err == nil {
		t.Error("loading malformed JSON should fail")
	}
	wrongVersion := filepath.Join(t.TempDir(), "v9.json")
	if err := os.WriteFile(wrongVersion, []byte(`{"version": 9, "findings": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(wrongVersion); err == nil {
		t.Error("loading an unsupported version should fail")
	}
}

// FuzzLoadBaseline feeds arbitrary bytes to the baseline reader that
// cmd/misvet -baseline runs on a file from outside: any input must load as
// a baseline or fail with an error, never panic, and an accepted baseline
// must survive a Write → LoadBaseline round trip unchanged.
func FuzzLoadBaseline(f *testing.F) {
	f.Add([]byte(`{"version": 1, "findings": [{"analyzer": "determinism", "file": "a.go", "line": 10, "col": 1, "message": "call of time.Now"}]}`))
	f.Add([]byte(`{"version": 1, "findings": []}`))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 9, "findings": []}`))
	f.Add([]byte(`{"version": 1, "findings": [null, {"line": -3}]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := LoadBaseline(path)
		if err != nil {
			return // rejecting is always acceptable
		}
		again := filepath.Join(dir, "again.json")
		if err := b.Write(again); err != nil {
			t.Fatalf("writing an accepted baseline: %v", err)
		}
		reloaded, err := LoadBaseline(again)
		if err != nil {
			t.Fatalf("re-written baseline rejected: %v", err)
		}
		if !reflect.DeepEqual(reloaded, b) {
			t.Fatalf("round trip gave %+v, want %+v", reloaded, b)
		}
	})
}
