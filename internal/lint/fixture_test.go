package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expectation is one `// want "regexp"` annotation in a fixture file.
type expectation struct {
	file    string // module-relative, matching Diagnostic.File
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

// wantToken extracts the quoted regexps after a `// want` marker.
var wantToken = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants scans every fixture file for want annotations.
func parseWants(t *testing.T, srcRoot string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.Walk(srcRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(srcRoot, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			_, after, found := strings.Cut(line, "// want ")
			if !found {
				continue
			}
			tokens := wantToken.FindAllString(after, -1)
			if len(tokens) == 0 {
				return fmt.Errorf("%s:%d: malformed want comment %q", rel, i+1, line)
			}
			for _, tok := range tokens {
				pattern, err := strconv.Unquote(tok)
				if err != nil {
					return fmt.Errorf("%s:%d: unquoting %s: %v", rel, i+1, tok, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					return fmt.Errorf("%s:%d: compiling %q: %v", rel, i+1, pattern, err)
				}
				wants = append(wants, &expectation{file: rel, line: i + 1, pattern: pattern, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("parsing want annotations: %v", err)
	}
	if len(wants) == 0 {
		t.Fatalf("no want annotations under %s", srcRoot)
	}
	return wants
}

// TestFixtures runs the full suite over the fixture tree and checks the
// findings against the want annotations, in both directions: every
// diagnostic must be wanted, and every want must be hit.
func TestFixtures(t *testing.T) {
	m, err := LoadTree("testdata/src", "repro")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	diags, suppressed := Run(m, Suite())
	wants := parseWants(t, "testdata/src")

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}

	// The escapes must be suppressed, not silently dropped: the advisory
	// escapes in fixdet (4: same-line, line-above, and a two-finding
	// function doc), fixmap (1), and fixdraw's goroutine spawn (1).
	if want := 6; suppressed != want {
		t.Errorf("suppressed = %d, want %d", suppressed, want)
	}
}

// TestFixtureDeterministicOutput runs the suite twice over fresh loads
// and demands byte-identical reports: analyzer output order is part of
// the tool's contract (diffable CI logs).
func TestFixtureDeterministicOutput(t *testing.T) {
	render := func() string {
		m, err := LoadTree("testdata/src", "repro")
		if err != nil {
			t.Fatalf("LoadTree: %v", err)
		}
		diags, _ := Run(m, Suite())
		var sb strings.Builder
		for _, d := range diags {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("two runs disagree:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestOnlySubsetOfSuite checks analyzers run independently: the
// determinism analyzer alone must produce only determinism findings.
func TestOnlySubsetOfSuite(t *testing.T) {
	m, err := LoadTree("testdata/src", "repro")
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	diags, _ := Run(m, []*Analyzer{DeterminismAnalyzer})
	if len(diags) == 0 {
		t.Fatal("determinism alone found nothing")
	}
	for _, d := range diags {
		if d.Analyzer != "determinism" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
		if !strings.HasPrefix(d.File, "repro/internal/mis/fixdet/") {
			t.Errorf("determinism finding outside fixdet: %s", d)
		}
	}
}
