package metivier

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/rng"
)

func TestProducesMISOnFamilies(t *testing.T) {
	r := rng.New(1)
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(50)},
		{"cycle", gen.Cycle(51)},
		{"star", gen.Star(40)},
		{"tree", gen.RandomTree(300, r.Split(1))},
		{"grid", gen.Grid(12, 12)},
		{"gnp", gen.GNP(150, 0.1, r.Split(2))},
		{"union3", gen.UnionOfTrees(200, 3, r.Split(3))},
		{"isolated", graph.MustNew(10, nil)},
		{"k1", graph.MustNew(1, nil)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			statuses, _, err := Run(c.g, congest.Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := base.VerifyStatuses(c.g, statuses); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManySeeds(t *testing.T) {
	g := gen.UnionOfTrees(100, 2, rng.New(5))
	for seed := uint64(0); seed < 25; seed++ {
		statuses, _, err := Run(g, congest.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := base.VerifyStatuses(g, statuses); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestParallelDriverIdentical(t *testing.T) {
	g := gen.RandomTree(200, rng.New(9))
	seq, seqRes, err := Run(g, congest.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	par, parRes, err := Run(g, congest.Options{Seed: 7, Driver: congest.DriverPool})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes != parRes {
		t.Fatalf("run stats differ: %+v vs %+v", seqRes, parRes)
	}
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("node %d: sequential %v, parallel %v", v, seq[v], par[v])
		}
	}
}

func TestIsolatedVertexJoinsImmediately(t *testing.T) {
	g := graph.MustNew(3, nil)
	statuses, res, err := Run(g, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range statuses {
		if s != base.StatusInMIS {
			t.Fatalf("isolated node %d status %v", v, s)
		}
	}
	if res.Rounds != 1 {
		t.Fatalf("isolated vertices took %d rounds", res.Rounds)
	}
}

func TestCompleteGraphPicksExactlyOne(t *testing.T) {
	var edges []graph.Edge
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g := graph.MustNew(20, edges)
	for seed := uint64(0); seed < 10; seed++ {
		statuses, _, err := Run(g, congest.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.SetSize(base.MISSet(statuses)); got != 1 {
			t.Fatalf("K20 MIS size %d", got)
		}
	}
}

func TestMessageSizesAreConstant(t *testing.T) {
	g := gen.RandomTree(100, rng.New(2))
	_, res, err := Run(g, congest.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBits > 65 {
		t.Fatalf("max message bits %d", res.MaxMessageBits)
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	// Sanity bound: O(log n) whp with a generous constant. 3 engine rounds
	// per iteration, so 3 * 8 * log2(n) is comfortably above the whp bound.
	g := gen.GNP(500, 0.05, rng.New(4))
	_, res, err := Run(g, congest.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 3*8*10 { // log2(500) < 10
		t.Fatalf("took %d rounds", res.Rounds)
	}
}

func TestStatusesCompleteOnEveryNode(t *testing.T) {
	g := gen.Caterpillar(20, 4)
	statuses, _, err := Run(g, congest.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range statuses {
		if s != base.StatusInMIS && s != base.StatusDominated {
			t.Fatalf("node %d unresolved: %v", v, s)
		}
	}
}
