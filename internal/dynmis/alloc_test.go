package dynmis_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/congest"
	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestApplyBytes bounds the heap bytes one Apply allocates, averaged over
// a 256-batch stream of 16 updates (5% node churn) on a 2^12-vertex random
// tree, sequentially and on two pool shards. A repair's fixed cost is its
// subgraph and one Runner: its trace fingerprint is folded by an
// engine-owned sink with no event ring, which at 1,024 events of 40 bytes
// each would alone cost 40 KB per repair.
func TestApplyBytes(t *testing.T) {
	const n, batches, budget = 1 << 12, 256, 8 << 10
	g := gen.RandomTree(n, rng.New(12))
	stream, err := dynmis.UpdateStream(g, dynmis.StreamConfig{Batches: batches, BatchSize: 16, Churn: 0.05}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts dynmis.Options
	}{
		{"sequential", dynmis.Options{Seed: 1}},
		{"pool-2", dynmis.Options{Seed: 1, Driver: congest.DriverPool, Workers: 2}},
	} {
		e, err := dynmis.New(g, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		gc := debug.SetGCPercent(-1)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i, b := range stream {
			if _, err := e.Apply(b); err != nil {
				debug.SetGCPercent(gc)
				t.Fatalf("%s: batch %d: %v", c.name, i, err)
			}
		}
		runtime.ReadMemStats(&ms)
		debug.SetGCPercent(gc)
		perApply := float64(ms.TotalAlloc-before) / batches
		t.Logf("%s: %.0f B per Apply", c.name, perApply)
		if perApply > budget {
			t.Errorf("%s: Apply allocates %.0f bytes on average, budget %d", c.name, perApply, budget)
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
