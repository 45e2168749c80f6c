package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModule clones the real module's buildable sources into a temp dir
// so a test can seed violations without touching the working tree. Test
// files, fixture trees, and result artifacts are skipped: the analyzers
// never load them and the copy stays cheap.
func copyModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	srcRoot := "../.."
	err := filepath.Walk(srcRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(srcRoot, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			switch info.Name() {
			case ".git", "testdata", "results":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(root, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(root, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return root
}

// mutate rewrites the first occurrence of anchor in path. A missing
// anchor fails loudly: it means the engine changed shape and the seeded
// violation no longer describes real code.
func mutate(t *testing.T, path, anchor, replacement string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, anchor) {
		t.Fatalf("%s: seeding anchor %q not found; update the seeded-violation test", path, anchor)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(s, anchor, replacement, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSeededViolations re-seeds the two regressions the interprocedural
// analyzers exist to prevent into a copy of the real module and asserts
// misvet's suite catches both: an allocation in the hot-path pull inbox
// builder, and an engine RNG draw inside a pool worker goroutine.
// The module is clean before seeding (TestModuleClean), so every finding
// here is mutation-caused.
func TestSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a full module copy")
	}
	root := copyModule(t)

	// Seed A: allocate in pullInbox, a //congest:hotpath function every
	// pull round runs once per live vertex.
	mutate(t, filepath.Join(root, "internal/congest/congest.go"),
		"func (sh *shard) pullInbox(row []int32) []Message {",
		"func (sh *shard) pullInbox(row []int32) []Message {\n\t_ = make([]int, len(row))")

	// Seed B: draw from the coordinator-owned fault stream inside a pool
	// worker goroutine — randomness consumed in scheduling order.
	mutate(t, filepath.Join(root, "internal/congest/driver.go"),
		"for round := range start {",
		"for round := range start {\n\t\t\t\t_ = st.faults.Uint64()")

	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule on seeded copy: %v", err)
	}
	diags, _ := Run(m, Suite())
	var hotalloc, draworder int
	for _, d := range diags {
		switch d.Analyzer {
		case "hotalloc":
			hotalloc++
		case "draworder":
			draworder++
		default:
			t.Errorf("unexpected %s finding on seeded copy: %s", d.Analyzer, d)
		}
	}
	if hotalloc == 0 {
		t.Error("seeded hot-path allocation not caught by hotalloc")
	}
	if draworder == 0 {
		t.Error("seeded worker-goroutine RNG draw not caught by draworder")
	}
}
