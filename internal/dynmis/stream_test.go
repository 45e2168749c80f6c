package dynmis_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestOpNames: every update kind renders under its own name, and an
// invalid (zero) op renders with its number rather than an empty string.
func TestOpNames(t *testing.T) {
	seen := map[string]bool{}
	for _, op := range []dynmis.Op{dynmis.OpInsertEdge, dynmis.OpRemoveEdge, dynmis.OpInsertNode, dynmis.OpRemoveNode} {
		s := op.String()
		if strings.HasPrefix(s, "op(") || seen[s] {
			t.Fatalf("op %d renders as %q: unnamed or a duplicate name", int(op), s)
		}
		seen[s] = true
	}
	if s := dynmis.Op(0).String(); !strings.Contains(s, "0") {
		t.Fatalf("zero op renders as %q", s)
	}
}

// TestGeneratorDeterministic: same (graph, config, seed) must yield the
// byte-identical stream; a different stream seed must diverge.
func TestGeneratorDeterministic(t *testing.T) {
	g := gen.RandomTree(128, rng.New(3))
	cfg := dynmis.StreamConfig{Batches: 8, BatchSize: 8, Locality: 0.4, Churn: 0.2}
	a, err := dynmis.UpdateStream(g, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dynmis.UpdateStream(g, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c, err := dynmis.UpdateStream(g, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGeneratorStreamsReplay: every generated stream must replay cleanly
// against the base graph it was generated for, across the knob space.
func TestGeneratorStreamsReplay(t *testing.T) {
	g := gen.RandomTree(96, rng.New(5))
	for _, cfg := range []dynmis.StreamConfig{
		{Batches: 6, BatchSize: 8},
		{Batches: 6, BatchSize: 8, Locality: 1},
		{Batches: 6, BatchSize: 8, Churn: 1},
		{Batches: 6, BatchSize: 8, Locality: 0.7, Churn: 0.3, InsertBias: 0.9, Attach: 4},
		{Batches: 6, BatchSize: 8, InsertBias: 0.1},
	} {
		batches, err := dynmis.UpdateStream(g, cfg, rng.New(11))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		e, err := dynmis.New(g, dynmis.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range batches {
			if _, err := e.Apply(b); err != nil {
				t.Fatalf("%+v batch %d: %v", cfg, bi, err)
			}
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestGeneratorRejectsBadConfig(t *testing.T) {
	g := graph.MustNew(4, nil)
	for _, cfg := range []dynmis.StreamConfig{
		{Batches: 0, BatchSize: 4},
		{Batches: 4, BatchSize: 0},
		{Batches: 4, BatchSize: 4, Locality: 1.5},
		{Batches: 4, BatchSize: 4, Churn: -0.1},
		{Batches: 4, BatchSize: 4, InsertBias: 2},
		{Batches: 4, BatchSize: 4, Attach: -1},
	} {
		if _, err := dynmis.UpdateStream(g, cfg, rng.New(1)); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestGeneratorFromEmptyGraph: churn can grow a graph from nothing.
func TestGeneratorFromEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil)
	batches, err := dynmis.UpdateStream(g, dynmis.StreamConfig{Batches: 4, BatchSize: 4, Churn: 0.5}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := dynmis.New(g, dynmis.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range batches {
		if _, err := e.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if e.Graph().AliveCount() == 0 {
		t.Fatal("stream never grew the empty graph")
	}
}
