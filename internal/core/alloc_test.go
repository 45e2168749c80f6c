package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/rng"
)

// alg1Mallocs returns the fewest heap objects one whole RunAlg1 call made
// over three repetitions, each after a collection, together with the
// number of ScaleRecords that call returned. The measurement spans
// everything RunAlg1 does: the factory's node state, NewRunner, Run and
// the outputs. The minimum filters runtime allocations that land in some
// repetitions and not in others.
func alg1Mallocs(t *testing.T, n int, opts congest.Options) (objects uint64, records int) {
	t.Helper()
	g := gen.UnionOfTrees(n, 3, rng.New(14))
	params := PracticalParams(3, g.MaxDegree())
	best := ^uint64(0)
	var ms runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		out, err := RunAlg1(g, params, opts)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, ms.Mallocs-before)
		records = countRecords(out)
	}
	return best, records
}

// TestAlg1RunAllocs gates a whole Algorithm 1 run's heap objects: every
// vertex's node and scale records live in run-wide slices and its
// active-neighbour flags in the engine's marks, one allocation per shard,
// so a run makes a fixed number of objects plus its returned records'
// backing arrays — at most one per ScaleRecord — and nothing per vertex.
func TestAlg1RunAllocs(t *testing.T) {
	const budget = 64 // objects per run beyond one per returned ScaleRecord
	configs := []struct {
		name string
		opts congest.Options
	}{
		{"sequential", congest.Options{Seed: 1}},
		{"pool-2", congest.Options{Seed: 1, Driver: congest.DriverPool, Workers: 2}},
	}
	for _, n := range []int{1 << 10, 1 << 14} {
		for _, c := range configs {
			objects, records := alg1Mallocs(t, n, c.opts)
			t.Logf("n=%d %s: %d objects, %d records", n, c.name, objects, records)
			if objects > uint64(budget+records) {
				t.Errorf("n=%d %s: RunAlg1 made %d heap objects for %d scale records, budget %d + records",
					n, c.name, objects, records, budget)
			}
		}
	}
}

// TestNodeSize pins Algorithm 1's node at 32 bytes with one pointer, the
// run, on 64-bit platforms: every run holds one per vertex in its slab,
// so per-vertex state that is not the node's own status, priority,
// opt-out flag and 4-byte active-neighbour count, which fills the padding,
// belongs in the run's pointer-free slices or the engine's marks.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 32-byte layout is for 64-bit platforms")
	}
	if s := unsafe.Sizeof(node{}); s != 32 {
		t.Fatalf("node is %d bytes, want 32", s)
	}
}
