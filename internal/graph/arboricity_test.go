package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestExactArboricityKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"edgeless", MustNew(4, nil), 0},
		{"single-edge", MustNew(2, []Edge{{0, 1}}), 1},
		{"path", path(8), 1},
		{"star", MustNew(6, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}), 1},
		{"cycle", cycle(7), 2}, // ⌈7/6⌉ = 2
		{"k4", complete(4), 2}, // ⌈6/3⌉ = 2
		{"k5", complete(5), 3}, // ⌈10/4⌉ = 3
		{"k6", complete(6), 3}, // ⌈15/5⌉ = 3
		{"k7", complete(7), 4}, // ⌈21/6⌉ = 4
		{"two-triangles", MustNew(6, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.g.ExactArboricity(); got != c.want {
				t.Fatalf("arboricity = %d, want %d", got, c.want)
			}
		})
	}
}

func TestExactArboricityPanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(25, nil).ExactArboricity()
}

func TestArboricityBoundsBracketExact(t *testing.T) {
	// Property: on random small graphs, the fast bounds always bracket the
	// exact Nash-Williams value.
	r := rng.New(60)
	if err := quick.Check(func(seed uint64) bool {
		rr := r.Split(seed)
		n := 4 + rr.Intn(10)
		g := randomGraph(rr, n, 0.3)
		if g.M() == 0 {
			return true
		}
		exact := g.ExactArboricity()
		lo, hi := g.ArboricityBounds()
		return lo <= exact && exact <= hi
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExactArboricityAtMostDegeneracy(t *testing.T) {
	// Upper-bound sanity: a degeneracy-d orientation's i-th out-edges form
	// forest i, so the edges split into at most d forests and the exact
	// arboricity can never exceed d.
	r := rng.New(61)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 12, 0.3)
		if g.M() == 0 {
			continue
		}
		_, d := g.OrientByDegeneracy()
		if exact := g.ExactArboricity(); exact > d {
			t.Fatalf("exact %d > degeneracy %d", exact, d)
		}
	}
}
