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
// over three repetitions, each after a collection. The measurement spans
// everything RunAlg1 does: the factory's node slab, NewRunner, Run and
// the statuses. The minimum filters runtime allocations that land in some
// repetitions and not in others.
func alg1Mallocs(t *testing.T, n int, opts congest.Options) uint64 {
	t.Helper()
	g := gen.UnionOfTrees(n, 3, rng.New(14))
	params := PracticalParams(3, g.MaxDegree())
	best := ^uint64(0)
	var ms runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		_, _, err := RunAlg1(g, params, opts)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, ms.Mallocs-before)
	}
	return best
}

// TestAlg1RunAllocs gates a whole Algorithm 1 run's heap objects: its
// nodes come from a slab, its active-neighbour flags are the engine's
// marks, one allocation per shard, and its scale records ride the event
// bus, which an untraced run leaves off, so a run makes a fixed number of
// objects and nothing per vertex or per record.
func TestAlg1RunAllocs(t *testing.T) {
	const budget = 64 // objects per run
	configs := []struct {
		name string
		opts congest.Options
	}{
		{"sequential", congest.Options{Seed: 1}},
		{"pool-2", congest.Options{Seed: 1, Driver: congest.DriverPool, Workers: 2}},
	}
	for _, n := range []int{1 << 10, 1 << 14} {
		for _, c := range configs {
			objects := alg1Mallocs(t, n, c.opts)
			t.Logf("n=%d %s: %d objects", n, c.name, objects)
			if objects > budget {
				t.Errorf("n=%d %s: RunAlg1 made %d heap objects, budget %d", n, c.name, objects, budget)
			}
		}
	}
}

// TestNodeSize pins Algorithm 1's node at 32 bytes with one pointer, the
// run's Params, on 64-bit platforms: every run holds one per vertex in its
// slab, so per-vertex state that is not the node's own status, priority,
// opt-out flag and 4-byte active-neighbour count, which fills the padding,
// belongs in the engine's marks.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 32-byte layout is for 64-bit platforms")
	}
	if s := unsafe.Sizeof(node{}); s != 32 {
		t.Fatalf("node is %d bytes, want 32", s)
	}
}
