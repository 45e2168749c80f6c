package gen

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestPath(t *testing.T) {
	g := Path(10)
	if g.N() != 10 || g.M() != 9 || !g.IsForest() {
		t.Fatalf("path: n=%d m=%d forest=%v", g.N(), g.M(), g.IsForest())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("path maxdeg = %d", g.MaxDegree())
	}
}

func TestPathTiny(t *testing.T) {
	if Path(0).N() != 0 || Path(1).N() != 1 || Path(1).M() != 0 {
		t.Fatal("tiny paths wrong")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(7)
	if g.N() != 7 || g.M() != 7 || g.IsForest() {
		t.Fatal("cycle wrong")
	}
	_, count := g.Components()
	if count != 1 {
		t.Fatal("cycle disconnected")
	}
}

func TestCyclePanicsSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cycle(2)
}

func TestStar(t *testing.T) {
	g := Star(50)
	if g.Degree(0) != 49 {
		t.Fatalf("center degree %d", g.Degree(0))
	}
	if !g.IsForest() {
		t.Fatal("star should be a tree")
	}
	lo, hi := g.ArboricityBounds()
	if lo != 1 || hi != 1 {
		t.Fatalf("star arboricity [%d,%d]", lo, hi)
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(15)
	if g.M() != 14 || !g.IsForest() {
		t.Fatal("binary tree wrong")
	}
	if g.Degree(0) != 2 {
		t.Fatalf("root degree %d", g.Degree(0))
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("maxdeg %d", g.MaxDegree())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 3, 10, 100, 1000} {
		g := RandomTree(n, r.Split(uint64(n)))
		if g.N() != n {
			t.Fatalf("n=%d: got %d vertices", n, g.N())
		}
		if n > 0 && g.M() != n-1 {
			t.Fatalf("n=%d: %d edges", n, g.M())
		}
		if !g.IsForest() {
			t.Fatalf("n=%d: not a forest", n)
		}
		if n > 0 {
			if _, count := g.Components(); count != 1 {
				t.Fatalf("n=%d: disconnected", n)
			}
		}
	}
}

func TestRandomTreeDeterministic(t *testing.T) {
	a := RandomTree(100, rng.New(42))
	b := RandomTree(100, rng.New(42))
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed, different trees")
		}
	}
}

func TestRandomTreeVariety(t *testing.T) {
	// Different seeds should (almost surely) give different trees.
	a := RandomTree(50, rng.New(1))
	b := RandomTree(50, rng.New(2))
	same := true
	ea, eb := a.Edges(), b.Edges()
	if len(ea) == len(eb) {
		for i := range ea {
			if ea[i] != eb[i] {
				same = false
				break
			}
		}
	} else {
		same = false
	}
	if same {
		t.Fatal("two seeds produced identical trees")
	}
}

func TestRandomTreePruferProperty(t *testing.T) {
	// quick.Check: any random tree is connected and acyclic.
	r := rng.New(3)
	if err := quick.Check(func(seed uint64) bool {
		n := 3 + int(seed%200)
		g := RandomTree(n, r.Split(seed))
		_, count := g.Components()
		return g.M() == n-1 && count == 1
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 20 || g.M() != 19 || !g.IsForest() {
		t.Fatalf("caterpillar n=%d m=%d", g.N(), g.M())
	}
	if Caterpillar(0, 3).N() != 0 {
		t.Fatal("empty caterpillar")
	}
}

func TestUnionOfTreesArboricity(t *testing.T) {
	r := rng.New(5)
	for alpha := 1; alpha <= 5; alpha++ {
		g := UnionOfTrees(200, alpha, r.Split(uint64(alpha)))
		lo, hi := g.ArboricityBounds()
		if lo > alpha {
			t.Fatalf("alpha=%d: lower bound %d exceeds construction", alpha, lo)
		}
		// Degeneracy of a union of alpha forests is < 2*alpha.
		if hi >= 2*alpha+1 {
			t.Fatalf("alpha=%d: upper bound %d too large", alpha, hi)
		}
		if g.M() > alpha*(g.N()-1) {
			t.Fatalf("alpha=%d: too many edges %d", alpha, g.M())
		}
	}
}

func TestUnionOfTreesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UnionOfTrees(10, 0, rng.New(1))
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5)
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	// Grid edges: rows*(cols-1) + (rows-1)*cols = 4*4 + 3*5 = 31.
	if g.M() != 31 {
		t.Fatalf("m = %d", g.M())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("maxdeg = %d", g.MaxDegree())
	}
	lo, hi := g.ArboricityBounds()
	if lo < 1 || hi > 3 {
		t.Fatalf("grid arboricity bounds [%d,%d]", lo, hi)
	}
}

func TestKTree(t *testing.T) {
	r := rng.New(7)
	for _, k := range []int{1, 2, 3} {
		g := KTree(100, k, r.Split(uint64(k)))
		if g.N() != 100 {
			t.Fatalf("k=%d n=%d", k, g.N())
		}
		// k-tree on n vertices has k*n - k(k+1)/2 edges.
		want := k*100 - k*(k+1)/2
		if g.M() != want {
			t.Fatalf("k=%d: m=%d want %d", k, g.M(), want)
		}
		_, hi := g.ArboricityBounds()
		if hi > k {
			t.Fatalf("k=%d: degeneracy %d > k", k, hi)
		}
	}
}

func TestKTreeK1IsTree(t *testing.T) {
	g := KTree(50, 1, rng.New(9))
	if !g.IsForest() {
		t.Fatal("1-tree should be a tree")
	}
}

func TestGNPEdgeCount(t *testing.T) {
	r := rng.New(11)
	n, p := 300, 0.1
	g := GNP(n, p, r)
	want := p * float64(n*(n-1)/2)
	got := float64(g.M())
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("GNP edge count %v, want ~%v", got, want)
	}
}

func TestGNPExtremes(t *testing.T) {
	r := rng.New(12)
	if GNP(10, 0, r).M() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	if GNP(10, 1, r).M() != 45 {
		t.Fatal("GNP(p=1) not complete")
	}
}

func TestGNPValidEdges(t *testing.T) {
	r := rng.New(13)
	g := GNP(50, 0.2, r)
	for _, e := range g.Edges() {
		if e.U < 0 || e.V >= 50 || e.U >= e.V {
			t.Fatalf("bad edge %v", e)
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	r := rng.New(14)
	g, pts := RandomGeometric(500, 0.08, r)
	if g.N() != 500 || len(pts) != 500 {
		t.Fatal("RGG size wrong")
	}
	// Verify against brute force.
	r2 := 0.08 * 0.08
	m := 0
	for i := 0; i < 500; i++ {
		for j := i + 1; j < 500; j++ {
			dx, dy := pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]
			if dx*dx+dy*dy <= r2 {
				m++
				if !g.HasEdge(i, j) {
					t.Fatalf("missing edge (%d,%d)", i, j)
				}
			}
		}
	}
	if m != g.M() {
		t.Fatalf("RGG has %d edges, brute force found %d", g.M(), m)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	r := rng.New(15)
	g := PreferentialAttachment(200, 3, r)
	if g.N() != 200 {
		t.Fatalf("n = %d", g.N())
	}
	// Each of the 199-3 = 196... vertices after the seed adds exactly 3
	// distinct edges; seed star has 3.
	want := 3 + (200-4)*3
	if g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	_, hi := g.ArboricityBounds()
	if hi > 3 {
		t.Fatalf("PA(m=3) degeneracy %d > 3", hi)
	}
}

func TestRandomForest(t *testing.T) {
	r := rng.New(16)
	g := RandomForest(100, 7, r)
	if !g.IsForest() {
		t.Fatal("not a forest")
	}
	_, count := g.Components()
	if count != 7 {
		t.Fatalf("components = %d, want 7", count)
	}
}

func TestRandomForestMoreTreesThanVertices(t *testing.T) {
	g := RandomForest(3, 10, rng.New(17))
	if g.N() != 3 || g.M() != 0 {
		t.Fatal("degenerate forest wrong")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		make func(seed uint64) *graph.Graph
	}{
		{"UnionOfTrees", func(s uint64) *graph.Graph { return UnionOfTrees(80, 3, rng.New(s)) }},
		{"GNP", func(s uint64) *graph.Graph { return GNP(80, 0.1, rng.New(s)) }},
		{"KTree", func(s uint64) *graph.Graph { return KTree(80, 2, rng.New(s)) }},
		{"PA", func(s uint64) *graph.Graph { return PreferentialAttachment(80, 2, rng.New(s)) }},
		{"RGG", func(s uint64) *graph.Graph { g, _ := RandomGeometric(80, 0.15, rng.New(s)); return g }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.make(99), c.make(99)
			ea, eb := a.Edges(), b.Edges()
			if len(ea) != len(eb) {
				t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
			}
			for i := range ea {
				if ea[i] != eb[i] {
					t.Fatalf("edge %d differs", i)
				}
			}
		})
	}
}

// TestPreferentialAttachmentGolden pins the edge lists PreferentialAttachment
// draws, as a fold of every (U, V) in Edges() order, at the perfbench
// metivier-pool size and at small and degenerate (n, m) over seeds 0–3: a
// rewrite of the generator must draw the same endpoints in the same order.
func TestPreferentialAttachmentGolden(t *testing.T) {
	for _, c := range []struct {
		n, m int
		fp   [4]uint64
	}{
		{1 << 17, 4, [4]uint64{0xc7f4f0d343aa8b0b, 0x57318e1ce8ce4f2e, 0x3eaee48f343663db, 0x9265f294cf3b5dc4}},
		{1000, 1, [4]uint64{0xb390b23609b0d2bf, 0x32b8e0302cf85a24, 0xc3fc4071bedbd584, 0x6f5c15484396ba3c}},
		{500, 7, [4]uint64{0x120c707a511d83e7, 0xa4a5de53852d023c, 0x2a0e9ca8c9d51b29, 0x6ec417b6e6122cef}},
		{6, 5, [4]uint64{0x69e347ca1fc3d252, 0x69e347ca1fc3d252, 0x69e347ca1fc3d252, 0x69e347ca1fc3d252}},
	} {
		for seed := range c.fp {
			g := PreferentialAttachment(c.n, c.m, rng.New(uint64(seed)))
			h := trace.FoldSeed
			for _, e := range g.Edges() {
				h = trace.Fold(h, uint64(e.U)<<32|uint64(e.V))
			}
			if h != c.fp[seed] {
				t.Errorf("PreferentialAttachment(%d, %d, seed %d) fingerprint %#x, want %#x", c.n, c.m, seed, h, c.fp[seed])
			}
		}
	}
}

// TestFamilyMatchesGenerators checks that Family builds each family with
// the generator call the commands made before they shared its switch;
// cmd/arbmis's TestBadGraphFlags drives every refusal.
func TestFamilyMatchesGenerators(t *testing.T) {
	const n, seed = 100, 7
	for _, c := range []struct {
		name  string
		alpha int
		p     float64
		want  *graph.Graph
	}{
		{"tree", 0, 0, RandomTree(n, rng.New(seed))},
		{"union", 3, 0, UnionOfTrees(n, 3, rng.New(seed))},
		{"grid", 0, 0, Grid(10, 10)},
		{"gnp", 0, 0.05, GNP(n, 0.05, rng.New(seed))},
		{"pa", 2, 0, PreferentialAttachment(n, 2, rng.New(seed))},
		{"rgg", 0, 0.2, func() *graph.Graph { g, _ := RandomGeometric(n, 0.2, rng.New(seed)); return g }()},
	} {
		g, err := Family(c.name, n, c.alpha, c.p, rng.New(seed))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g.N() != c.want.N() || !slices.Equal(g.Edges(), c.want.Edges()) {
			t.Errorf("%s: Family built n=%d m=%d, the generator n=%d m=%d", c.name, g.N(), g.M(), c.want.N(), c.want.M())
		}
	}
}
