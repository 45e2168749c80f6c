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
// tree, sequentially and on two pool shards, to 2.5 KB. A repair has no
// fixed set-up cost: it rebuilds the engine's one subgraph in place and
// rebinds its one Runner, whose buffers from the last repair suffice
// unless the region grew, so what it allocates is the DGraph's arena
// when it fills, the factory's nodes and, on the pool, the run's worker
// goroutines. A new subgraph and Runner per repair read 4.5 KB (5.7 on
// the pool), and a 1,024-event trace ring per repair, which the
// engine-owned fingerprint fold replaced, 45 KB.
func TestApplyBytes(t *testing.T) {
	const n, batches, budget = 1 << 12, 256, 2560
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

// TestEngineHeldBytes bounds the live heap an Engine holds once New has
// bootstrapped it on a 2^14-vertex random tree, sequentially and on two
// pool shards, to 56 bytes per vertex: its DGraph — an 8-byte span per ID
// and an arena of row blocks with room for as many entries again — and
// its per-vertex tables. Batch 0's region is every vertex, and an Engine
// that kept its region, seed, free and affected lists, subgraph edges,
// subgraph and Runner held 94 bytes per vertex (96 on the pool), with a
// 24-byte slice header per row and 8-byte epoch marks.
func TestEngineHeldBytes(t *testing.T) {
	const n, budget = 1 << 14, 56
	g := gen.RandomTree(n, rng.New(12))
	for _, c := range []struct {
		name string
		opts dynmis.Options
	}{
		{"sequential", dynmis.Options{Seed: 1}},
		{"pool-2", dynmis.Options{Seed: 1, Driver: congest.DriverPool, Workers: 2}},
	} {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		e, err := dynmis.New(g, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		perVertex := (float64(ms.HeapAlloc) - float64(before)) / n
		runtime.KeepAlive(e)
		t.Logf("%s: an Engine holds %.1f B per vertex", c.name, perVertex)
		if perVertex > budget {
			t.Errorf("%s: an Engine holds %.1f bytes per vertex after New, budget %d", c.name, perVertex, budget)
		}
	}
}
