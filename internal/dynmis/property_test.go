package dynmis_test

import (
	"fmt"
	"testing"

	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// propertyFamilies spans every generator family: the engine's correctness
// argument is topology-free and the suite holds it to that.
var propertyFamilies = []struct {
	name  string
	build func(n int, r *rng.RNG) *graph.Graph
}{
	{"tree", func(n int, r *rng.RNG) *graph.Graph { return gen.RandomTree(n, r) }},
	{"union", func(n int, r *rng.RNG) *graph.Graph { return gen.UnionOfTrees(n, 3, r) }},
	{"grid", func(n int, r *rng.RNG) *graph.Graph {
		side := 1
		for side*side < n {
			side++
		}
		return gen.Grid(side, side)
	}},
	{"gnp", func(n int, r *rng.RNG) *graph.Graph { return gen.GNP(n, 4/float64(n), r) }},
	{"pa", func(n int, r *rng.RNG) *graph.Graph { return gen.PreferentialAttachment(n, 2, r) }},
	{"rgg", func(n int, r *rng.RNG) *graph.Graph {
		g, _ := gen.RandomGeometric(n, 0.08, r)
		return g
	}},
}

// checkAgainstRecompute asserts the maintained set is a valid MIS of the
// engine's live graph two independent ways: the engine's own Verify, and
// graph.VerifyMIS on a fresh immutable snapshot (the same checker every
// static experiment trusts).
func checkAgainstRecompute(t *testing.T, e *dynmis.Engine, ctx string) {
	t.Helper()
	if err := e.Verify(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	snap, orig := e.Graph().Snapshot()
	inSet := make([]bool, snap.N())
	for i, v := range orig {
		inSet[i] = e.IsInMIS(v)
	}
	if err := snap.VerifyMIS(inSet); err != nil {
		t.Fatalf("%s: snapshot check: %v", ctx, err)
	}
}

// TestPropertyRandomStreams is the subsystem's main correctness net:
// random update streams over every family, with the maintained set checked
// for independence and maximality after every single batch.
func TestPropertyRandomStreams(t *testing.T) {
	streams := []dynmis.StreamConfig{
		{Batches: 10, BatchSize: 6, Locality: 0, Churn: 0.1},
		{Batches: 10, BatchSize: 6, Locality: 0.8, Churn: 0.3},
		{Batches: 10, BatchSize: 6, InsertBias: 0.2},
	}
	for _, fam := range propertyFamilies {
		for si, cfg := range streams {
			t.Run(fmt.Sprintf("%s/stream%d", fam.name, si), func(t *testing.T) {
				root := rng.New(uint64(1000 + si))
				g := fam.build(200, root.Split(1))
				batches, err := dynmis.UpdateStream(g, cfg, root.Split(2))
				if err != nil {
					t.Fatal(err)
				}
				e, err := dynmis.New(g, dynmis.Options{Seed: root.Split(3).Uint64()})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstRecompute(t, e, "bootstrap")
				for bi, b := range batches {
					if _, err := e.Apply(b); err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					checkAgainstRecompute(t, e, fmt.Sprintf("batch %d", bi))
				}
			})
		}
	}
}
