package distrib_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/congest"
	"repro/internal/distrib"
	"repro/internal/forest"
	"repro/internal/matching"
)

// TestFactoryAllocs is the factory allocation gate: a program factory
// carves its nodes from its own slab (mis/base.Slab), so building 2^14
// nodes, the factory itself included, takes at most 64 heap allocations
// where one object per node would take 16,384. It covers every factory in
// the registry plus matching.New and forest.New.
func TestFactoryAllocs(t *testing.T) {
	const (
		n      = 1 << 14
		budget = 64
	)
	roots := make([]int, n)
	for v := range roots {
		roots[v] = -1
	}
	builds := map[string]func() (func(int) congest.Node, error){
		"matching": func() (func(int) congest.Node, error) { return matching.New(), nil },
		"forest":   func() (func(int) congest.Node, error) { return forest.New(2, n), nil },
	}
	for _, name := range distrib.Algorithms() {
		prog := distrib.Program{Algorithm: name}
		if name == "colevishkin" {
			prog.Args = distrib.ColeVishkinArgs(roots)
		}
		builds[name] = func() (func(int) congest.Node, error) { return distrib.Factory(prog, n) }
	}
	for _, name := range append(distrib.Algorithms(), "matching", "forest") {
		allocs := factoryMallocs(t, n, builds[name])
		t.Logf("%s: %d allocations for %d nodes", name, allocs, n)
		if allocs > budget {
			t.Errorf("%s: building %d nodes makes %d allocations, budget %d", name, n, allocs, budget)
		}
	}
}

// factoryMallocs returns the fewest heap allocations that building a
// factory and calling it for vertices 0..n-1 made over a few repetitions,
// with the collector off.
func factoryMallocs(t *testing.T, n int, build func() (func(int) congest.Node, error)) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := ^uint64(0)
	var ms runtime.MemStats
	for rep := 0; rep < 3; rep++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		factory, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			factory(v)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	return best
}
