package matching

import (
	"testing"
	"testing/quick"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestMaximalMatchingOnFamilies(t *testing.T) {
	r := rng.New(1)
	cases := map[string]*graph.Graph{
		"path-even": gen.Path(10),
		"path-odd":  gen.Path(11),
		"cycle":     gen.Cycle(9),
		"star":      gen.Star(30),
		"tree":      gen.RandomTree(300, r.Split(1)),
		"grid":      gen.Grid(12, 12),
		"gnp":       gen.GNP(150, 0.1, r.Split(2)),
		"union3":    gen.UnionOfTrees(200, 3, r.Split(3)),
		"single":    graph.MustNew(1, nil),
		"isolated":  graph.MustNew(5, nil),
		"one-edge":  graph.MustNew(2, []graph.Edge{{U: 0, V: 1}}),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			partners, _, err := Run(g, congest.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			// Run verifies internally; double-check the API contract.
			if err := Verify(g, partners); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManySeeds(t *testing.T) {
	g := gen.UnionOfTrees(120, 2, rng.New(4))
	for seed := uint64(0); seed < 25; seed++ {
		if _, _, err := Run(g, congest.Options{Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestIsolatedVerticesUnmatched(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}})
	partners, _, err := Run(g, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if partners[2] != Unmatched || partners[3] != Unmatched {
		t.Fatal("isolated vertices matched")
	}
	if partners[0] != 1 || partners[1] != 0 {
		t.Fatalf("lone edge not matched: %v", partners)
	}
}

func TestSize(t *testing.T) {
	if Size([]int{1, 0, Unmatched, 4, 3}) != 2 {
		t.Fatal("Size wrong")
	}
	if Size(nil) != 0 {
		t.Fatal("Size(nil) wrong")
	}
}

func TestVerifyRejects(t *testing.T) {
	g := gen.Path(4) // 0-1-2-3
	cases := []struct {
		name     string
		partners []int
	}{
		{"wrong-length", []int{Unmatched}},
		{"asymmetric", []int{1, Unmatched, Unmatched, Unmatched}},
		{"non-edge", []int{2, Unmatched, 0, Unmatched}},
		{"out-of-range", []int{9, Unmatched, Unmatched, Unmatched}},
		{"not-maximal", []int{Unmatched, Unmatched, Unmatched, Unmatched}},
		{"half-maximal", []int{1, 0, Unmatched, Unmatched}}, // edge 2-3 uncovered
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := Verify(g, c.partners); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestVerifyAcceptsValid(t *testing.T) {
	g := gen.Path(4)
	if err := Verify(g, []int{1, 0, 3, 2}); err != nil {
		t.Fatal(err)
	}
	// {1-2} alone covers all three path edges' endpoints except edge 0-1
	// has endpoint 1 matched and edge 2-3 endpoint 2 matched: maximal.
	if err := Verify(g, []int{Unmatched, 2, 1, Unmatched}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelDriverIdentical(t *testing.T) {
	g := gen.RandomTree(150, rng.New(5))
	a, ares, err := Run(g, congest.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, bres, err := Run(g, congest.Options{Seed: 3, Driver: congest.DriverPool})
	if err != nil {
		t.Fatal(err)
	}
	if ares != bres {
		t.Fatalf("stats differ: %+v vs %+v", ares, bres)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	g := gen.GNP(500, 0.03, rng.New(6))
	_, res, err := Run(g, congest.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 3*15*9 { // generous O(log n)
		t.Fatalf("took %d rounds", res.Rounds)
	}
}

func TestMatchingSizeAtLeastHalfMaximum(t *testing.T) {
	// Any maximal matching is a 2-approximation of the maximum matching.
	// On an even path the maximum is n/2 edges, so maximal >= n/4.
	g := gen.Path(40)
	if err := quick.Check(func(seed uint64) bool {
		partners, _, err := Run(g, congest.Options{Seed: seed})
		if err != nil {
			return false
		}
		return Size(partners) >= 10
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageBitsConstant(t *testing.T) {
	g := gen.RandomTree(200, rng.New(7))
	_, res, err := Run(g, congest.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBits > 8 {
		t.Fatalf("max bits %d", res.MaxMessageBits)
	}
}

// BenchmarkRun measures one maximal-matching Run on a preferential-
// attachment graph (n = 2^16, 4 edges per arrival) under the sequential
// driver and the pool at 2 workers. Its proposal and acceptance rounds are
// SendSlot and Send calls, so it measures the in-process record pull on
// rounds of per-neighbor sends; run with -benchmem.
func BenchmarkRun(b *testing.B) {
	g := gen.PreferentialAttachment(1<<16, 4, rng.New(7))
	for _, c := range []struct {
		name string
		opts congest.Options
	}{
		{"sequential", congest.Options{Seed: 1}},
		{"pool-2", congest.Options{Seed: 1, Driver: congest.DriverPool, Workers: 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(g, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
