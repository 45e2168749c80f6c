package colevishkin

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/rng"
)

func forests(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r := rng.New(77)
	return map[string]*graph.Graph{
		"path":        gen.Path(100),
		"star":        gen.Star(64),
		"binary":      gen.CompleteBinaryTree(127),
		"caterpillar": gen.Caterpillar(20, 5),
		"random":      gen.RandomTree(500, r.Split(1)),
		"forest":      gen.RandomForest(300, 9, r.Split(2)),
		"single":      graph.MustNew(1, nil),
		"isolated":    graph.MustNew(8, nil),
		"two":         graph.MustNew(2, []graph.Edge{{U: 0, V: 1}}),
	}
}

func TestProducesMISOnForests(t *testing.T) {
	for name, g := range forests(t) {
		t.Run(name, func(t *testing.T) {
			statuses, _, err := Run(g, g.BFSForest(), congest.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := base.VerifyStatuses(g, statuses); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDeterministic(t *testing.T) {
	// Cole-Vishkin uses no randomness: any two runs agree exactly.
	g := gen.RandomTree(200, rng.New(3))
	p := g.BFSForest()
	a, _, err := Run(g, p, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(g, p, congest.Options{Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs across seeds (algorithm should be deterministic)", v)
		}
	}
}

func TestColorsAreProper3Coloring(t *testing.T) {
	for name, g := range forests(t) {
		t.Run(name, func(t *testing.T) {
			colors, _, err := Colors(g, g.BFSForest(), congest.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.N(); v++ {
				if colors[v] > 2 {
					t.Fatalf("node %d has color %d", v, colors[v])
				}
				for _, w := range g.Neighbors(v) {
					if colors[v] == colors[w] {
						t.Fatalf("edge (%d,%d) monochromatic with color %d", v, w, colors[v])
					}
				}
			}
		})
	}
}

func TestRoundsAreLogStar(t *testing.T) {
	// The total schedule is ReductionRounds(n) + 12; check both that the
	// engine agrees and that it grows like log*: doubling n adds at most
	// one round across this whole range.
	prev := 0
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		g := gen.Path(n)
		_, res, err := Run(g, g.BFSForest(), congest.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := ReductionRounds(n) + 12
		if res.Rounds != want {
			t.Fatalf("n=%d: %d rounds, schedule says %d", n, res.Rounds, want)
		}
		if prev > 0 && res.Rounds > prev+1 {
			t.Fatalf("rounds jumped from %d to %d on 10x n", prev, res.Rounds)
		}
		prev = res.Rounds
	}
}

func TestReductionRounds(t *testing.T) {
	if ReductionRounds(1) != 0 || ReductionRounds(6) != 0 {
		t.Fatal("tiny n should need 0 reductions")
	}
	if ReductionRounds(7) < 1 {
		t.Fatal("7 colors need at least one reduction")
	}
	// Monotone-ish sanity and log* scale: even astronomically large n
	// needs only a handful of iterations.
	if r := ReductionRounds(1 << 30); r > 6 {
		t.Fatalf("ReductionRounds(2^30) = %d", r)
	}
}

func TestValidateRejectsNonForest(t *testing.T) {
	g := gen.Cycle(5)
	parent := []int{-1, 0, 1, 2, 3}
	if _, _, err := Run(g, parent, congest.Options{Seed: 1}); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestValidateRejectsBadParentMap(t *testing.T) {
	g := gen.Path(4)
	cases := [][]int{
		{-1, 0, 1},     // wrong length
		{-1, 3, 1, 2},  // parent link not an edge
		{-1, 1, 1, 2},  // self-parent
		{-1, -1, 1, 2}, // missing a link (covers 2 edges, graph has 3)
		{-1, 0, 1, 9},  // out of range
	}
	for i, p := range cases {
		if _, _, err := Run(g, p, congest.Options{Seed: 1}); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestParallelDriverIdentical(t *testing.T) {
	g := gen.RandomTree(300, rng.New(4))
	p := g.BFSForest()
	seq, seqRes, err := Run(g, p, congest.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, parRes, err := Run(g, p, congest.Options{Seed: 2, Driver: congest.DriverPool})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes != parRes {
		t.Fatalf("stats differ: %+v vs %+v", seqRes, parRes)
	}
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

func TestMessageBitsBounded(t *testing.T) {
	g := gen.RandomTree(1000, rng.New(5))
	_, res, err := Run(g, g.BFSForest(), congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBits > 64 {
		t.Fatalf("max bits %d", res.MaxMessageBits)
	}
}

func TestDeepPathColoringEveryN(t *testing.T) {
	// Paths of many lengths, catching off-by-one issues in the schedule.
	for n := 1; n <= 64; n++ {
		g := gen.Path(n)
		statuses, _, err := Run(g, g.BFSForest(), congest.Options{Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := base.VerifyStatuses(g, statuses); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
