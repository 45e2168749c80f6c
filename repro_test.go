package repro

import (
	"testing"
)

func TestComputeMISQuickstart(t *testing.T) {
	g := UnionOfTrees(500, 2, 42)
	out, err := ComputeMIS(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, out.MIS); err != nil {
		t.Fatal(err)
	}
	if out.MISSize() == 0 || out.TotalRounds() == 0 {
		t.Fatalf("degenerate outcome: size=%d rounds=%d", out.MISSize(), out.TotalRounds())
	}
}

func TestComputeMISParallelDriver(t *testing.T) {
	g := RandomTree(300, 7)
	out, err := ComputeMIS(g, 1, Options{Seed: 2, Driver: DriverPool})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, out.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestComputeMISWithPaperParams(t *testing.T) {
	g := UnionOfTrees(200, 2, 9)
	out, err := ComputeMISWithParams(g, PaperParams(2, g.MaxDegree(), 1), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, out.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesProduceValidMIS(t *testing.T) {
	g := UnionOfTrees(300, 3, 11)
	type runner func(*Graph, Options) ([]bool, Result, error)
	for name, run := range map[string]runner{
		"metivier": Metivier,
		"lubyA":    LubyA,
		"lubyB":    LubyB,
		"ghaffari": Ghaffari,
	} {
		set, res, err := run(g, Options{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := VerifyMIS(g, set); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rounds == 0 {
			t.Fatalf("%s: zero rounds", name)
		}
	}
}

func TestColeVishkinViaPublicAPI(t *testing.T) {
	g := RandomTree(200, 13)
	// BFS parents from vertex 0 (tree is connected).
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if parent[w] == -2 {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	set, _, err := ColeVishkin(g, parent, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, set); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsViaPublicAPI(t *testing.T) {
	if g := Grid(5, 8); g.N() != 40 {
		t.Fatal("grid wrong")
	}
	if g := GNP(100, 0.05, 3); g.N() != 100 {
		t.Fatal("gnp wrong")
	}
	g, pts := RandomGeometric(100, 0.2, 4)
	if g.N() != 100 || len(pts) != 100 {
		t.Fatal("rgg wrong")
	}
	if g := PreferentialAttachment(100, 2, 5); g.N() != 100 {
		t.Fatal("pa wrong")
	}
	lo, hi := ArboricityBounds(RandomTree(100, 6))
	if lo != 1 || hi != 1 {
		t.Fatalf("tree arboricity [%d,%d]", lo, hi)
	}
}

func TestNewGraphValidates(t *testing.T) {
	if _, err := NewGraph(2, []Edge{{U: 0, V: 5}}); err == nil {
		t.Fatal("bad edge accepted")
	}
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}})
	if err != nil || g.M() != 1 {
		t.Fatalf("g=%v err=%v", g, err)
	}
}

func TestReadKToolkitViaPublicAPI(t *testing.T) {
	f, err := NewFamily(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add([]int{0, 1}, func(v []uint64) bool { return v[0] > v[1] }); err != nil {
		t.Fatal(err)
	}
	if f.K() != 1 {
		t.Fatalf("K = %d", f.K())
	}
	if b := ConjunctionBound(0.5, 4, 2); b <= 0 || b >= 1 {
		t.Fatalf("bound %v", b)
	}
	if b := TailBound(0.5, 100, 2); b <= 0 || b >= 1 {
		t.Fatalf("tail %v", b)
	}
}

func TestExperimentRegistry(t *testing.T) {
	drivers := Experiments()
	if len(drivers) != 21 {
		t.Fatalf("%d drivers", len(drivers))
	}
	if !QuickExperimentConfig().Quick || FullExperimentConfig().Quick {
		t.Fatal("configs mixed up")
	}
}

func TestComputeMISFullViaPublicAPI(t *testing.T) {
	g := PreferentialAttachment(1000, 3, 17)
	out, err := ComputeMISFull(g, 3, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, out.MIS); err != nil {
		t.Fatal(err)
	}
	if out.ReductionIterations < 1 || out.TotalRounds() < 1 {
		t.Fatalf("degenerate full outcome: %+v", out)
	}
}

func TestComputeMISWithFinisherViaPublicAPI(t *testing.T) {
	g := UnionOfTrees(300, 2, 18)
	params := PracticalParams(2, g.MaxDegree())
	for _, fin := range []BadFinisher{FinisherLocalMin, FinisherForestCV} {
		out, err := ComputeMISWithFinisher(g, params, fin, Options{Seed: 5})
		if err != nil {
			t.Fatalf("finisher %d: %v", fin, err)
		}
		if err := VerifyMIS(g, out.MIS); err != nil {
			t.Fatalf("finisher %d: %v", fin, err)
		}
	}
}

func TestTreeMISViaPublicAPI(t *testing.T) {
	g := RandomTree(300, 19)
	out, err := TreeMIS(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMIS(g, out.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestMaximalMatchingViaPublicAPI(t *testing.T) {
	g := UnionOfTrees(200, 2, 20)
	partners, res, err := MaximalMatching(g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("zero rounds")
	}
	matched := 0
	for v, p := range partners {
		if p == MatchingUnmatched {
			continue
		}
		matched++
		if partners[p] != v {
			t.Fatalf("asymmetric pair (%d,%d)", v, p)
		}
	}
	if matched == 0 {
		t.Fatal("nothing matched")
	}
}
