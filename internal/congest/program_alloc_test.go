package congest_test

import (
	"runtime"
	"testing"

	"repro/internal/congest"
	"repro/internal/forest"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/mis/ftmetivier"
	"repro/internal/mis/ghaffari"
	"repro/internal/mis/localmin"
	"repro/internal/mis/luby"
	"repro/internal/rng"
)

// TestProgramRunAllocs is the run-level allocation gate for the programs
// that track their active neighbours (mis/base.ActiveSet): their nodes
// come from a slab and their per-neighbour state lives in the engine's
// marks (congest.Context.Marks), so a whole run — factory, NewRunner and
// Run — makes a fixed number of heap allocations and none per vertex.
// Each program runs on a union of two trees at n = 2^10 and 2^14,
// sequentially and on two pool shards, within 64 allocations. It is an
// external test package because internal/congest's own tests cannot
// import the programs.
func TestProgramRunAllocs(t *testing.T) {
	const budget = 64
	programs := []struct {
		name    string
		factory func(n int) func(int) congest.Node
	}{
		{"luby-b", func(int) func(int) congest.Node { return luby.NewB() }},
		{"ghaffari", func(int) func(int) congest.Node { return ghaffari.New() }},
		{"localmin", func(int) func(int) congest.Node { return localmin.New() }},
		{"ftmetivier", func(int) func(int) congest.Node { return ftmetivier.New(0) }},
		{"matching", func(int) func(int) congest.Node { return matching.New() }},
		{"forest", func(n int) func(int) congest.Node { return forest.New(2, n) }},
	}
	drivers := []struct {
		name string
		opts congest.Options
	}{
		{"sequential", congest.Options{Seed: 1}},
		{"pool-2", congest.Options{Seed: 1, Driver: congest.DriverPool, Workers: 2}},
	}
	for _, n := range []int{1 << 10, 1 << 14} {
		g := gen.UnionOfTrees(n, 2, rng.New(3))
		for _, p := range programs {
			for _, d := range drivers {
				best := ^uint64(0)
				var ms runtime.MemStats
				for rep := 0; rep < 3; rep++ {
					runtime.GC()
					runtime.ReadMemStats(&ms)
					before := ms.Mallocs
					_, err := congest.NewRunner(g, p.factory(n), d.opts).Run()
					runtime.ReadMemStats(&ms)
					if err != nil {
						t.Fatalf("%s n=%d %s: %v", p.name, n, d.name, err)
					}
					best = min(best, ms.Mallocs-before)
				}
				t.Logf("%s n=%d %s: %d allocations", p.name, n, d.name, best)
				if best > budget {
					t.Errorf("%s n=%d %s: a run makes %d allocations, budget %d", p.name, n, d.name, best, budget)
				}
			}
		}
	}
}
