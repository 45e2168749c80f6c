package readk

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// arbGraphAndOrientation builds an arboricity-alpha graph with its
// degeneracy orientation.
func arbGraphAndOrientation(n, alpha int, seed uint64) (*graph.Graph, *graph.Orientation) {
	g := gen.UnionOfTrees(n, alpha, rng.New(seed))
	o, _ := g.OrientByDegeneracy()
	return g, o
}

func TestEvent1FamilyReadBound(t *testing.T) {
	for alpha := 1; alpha <= 4; alpha++ {
		g, o := arbGraphAndOrientation(300, alpha, uint64(alpha))
		// M = an independent subset of all vertices.
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		m := IndependentSubset(g, all)
		f, k, err := Event1Family(o, m)
		if err != nil {
			t.Fatal(err)
		}
		if f.N() != len(m) {
			t.Fatalf("alpha=%d: %d members for |M|=%d", alpha, f.N(), len(m))
		}
		// Paper claim: the family is read-α' where α' bounds out-degree.
		// Our orientation has out-degree ≤ degeneracy ≤ 2α-1.
		maxOut := o.MaxOutDegree()
		if k > maxOut {
			t.Fatalf("alpha=%d: family K=%d exceeds orientation out-degree %d", alpha, k, maxOut)
		}
		if f.K() != k {
			t.Fatalf("reported k %d != computed K %d", k, f.K())
		}
	}
}

func TestEvent1FamilyRejectsDependentSet(t *testing.T) {
	g := gen.Path(5)
	o, _ := g.OrientByDegeneracy()
	if _, _, err := Event1Family(o, []int{0, 1}); err == nil {
		t.Fatal("adjacent M accepted")
	}
}

func TestEvent1ConjunctionBoundHolds(t *testing.T) {
	// Theorem 3.1's engine: Pr[every x in M has a child beating it] must
	// respect the read-k conjunction bound computed from the empirical
	// per-member mean.
	g, o := arbGraphAndOrientation(200, 2, 9)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	// Restrict to independent vertices that actually have children, so
	// member probabilities are bounded away from 0.
	var m []int
	for _, v := range IndependentSubset(g, all) {
		if len(o.Children(v)) > 0 {
			m = append(m, v)
		}
	}
	if len(m) < 10 {
		t.Skip("degenerate orientation")
	}
	f, k, err := Event1Family(o, m)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := f.Estimate(rng.New(10), 30000)
	if err != nil {
		t.Fatal(err)
	}
	// Conservative: use the max member mean as the p of Theorem 1.1 (the
	// theorem assumes equal p; the bound with max p dominates).
	maxP := 0.0
	for _, p := range mc.Means {
		if p > maxP {
			maxP = p
		}
	}
	bound := ConjunctionBound(maxP, f.N(), k)
	if mc.AllOnes > bound+0.02 {
		t.Fatalf("conjunction %v exceeds bound %v (p=%v n=%d k=%d)", mc.AllOnes, bound, maxP, f.N(), k)
	}
}

func TestEvent2FamilyReadBound(t *testing.T) {
	g, o := arbGraphAndOrientation(300, 3, 11)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	rho := 6
	f, k, err := Event2Family(o, all, rho)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: each competitive parent (degree ≤ ρ) has at most
	// ρ children, so no base variable is read more than ρ+... times; with
	// the member's own read included the bound is max(ρ, own-reads) ≤
	// ρ + 1 in the worst accounting. Assert the structural bound.
	if k > rho+1 {
		t.Fatalf("K=%d exceeds rho+1=%d", k, rho+1)
	}
	if f.N() != g.N() {
		t.Fatalf("members %d != n %d", f.N(), g.N())
	}
}

func TestEvent2HighRhoMeansHighRead(t *testing.T) {
	// With rho = ∞ (no opt-out) a popular parent is read by all its
	// children: K can blow past any constant — demonstrating exactly why
	// the paper's ρₖ opt-out exists.
	g := gen.Star(100) // center is parent of everyone under degeneracy orientation
	o, _ := g.OrientByDegeneracy()
	leaves := make([]int, 0, 99)
	for v := 1; v < 100; v++ {
		leaves = append(leaves, v)
	}
	_, kNoCap, err := Event2Family(o, leaves, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	_, kCap, err := Event2Family(o, leaves, 2)
	if err != nil {
		t.Fatal(err)
	}
	if kNoCap < 50 {
		t.Fatalf("uncapped star K=%d, expected ~99", kNoCap)
	}
	if kCap > 3 {
		t.Fatalf("capped star K=%d, expected small", kCap)
	}
}

func TestEvent2TailBoundHolds(t *testing.T) {
	// Theorem 3.2's engine: X = #nodes beating all competitive parents is
	// concentrated; the lower tail respects TailForm1 with k = rho.
	g, o := arbGraphAndOrientation(400, 2, 12)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	rho := 2 * g.MaxDegree() // everyone competitive; k still bounded by max children
	f, k, err := Event2Family(o, all, rho)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := f.Estimate(rng.New(13), 20000)
	if err != nil {
		t.Fatal(err)
	}
	expY := mc.ExpectedSum()
	for _, delta := range []float64{0.1, 0.3} {
		emp := mc.TailLE(int((1 - delta) * expY))
		bound := TailForm2(delta, expY, k)
		if emp > bound+0.02 {
			t.Fatalf("delta=%v: empirical %v exceeds bound %v (k=%d)", delta, emp, bound, k)
		}
	}
}

func TestEvent3FamilyReadBound(t *testing.T) {
	for alpha := 1; alpha <= 3; alpha++ {
		g, o := arbGraphAndOrientation(300, alpha, uint64(20+alpha))
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		f, k, err := Event3Family(o, all)
		if err != nil {
			t.Fatal(err)
		}
		// Structural claim: read ≤ d(d+1) + 1 where d is the orientation's
		// max out-degree (the paper's α(α+1) with its ideal α-orientation).
		d := o.MaxOutDegree()
		limit := d*(d+1) + 1
		if k > limit {
			t.Fatalf("alpha=%d: K=%d exceeds d(d+1)+1=%d", alpha, k, limit)
		}
		if f.N() != g.N() {
			t.Fatalf("members %d", f.N())
		}
	}
}

func TestEvent3MembersFireWhenChildBeatsGrandchildren(t *testing.T) {
	// Deterministic check on a tiny rooted tree: 0 <- 1 <- 2 (2's parent 1,
	// 1's parent 0). With priorities r(1) > r(2), member Y_0 must fire.
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	pos := []int{2, 1, 0} // peel order 2,1,0 → 2's parent 1, 1's parent 0
	o, err := g.OrientByOrder(pos)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: children of 0 = {1}, children of 1 = {2}.
	if len(o.Children(0)) != 1 || o.Children(0)[0] != 1 {
		t.Fatalf("children(0) = %v", o.Children(0))
	}
	f, _, err := Event3Family(o, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Base assignment: r(0)=5, r(1)=9, r(2)=3 → child 1 beats grandchild 2.
	ys, err := f.Eval([]uint64{5, 9, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !ys[0] {
		t.Fatal("Y_0 should fire when child beats grandchildren")
	}
	// r(1)=2 < r(2)=3 → no child of 0 beats its children.
	ys, err = f.Eval([]uint64{5, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if ys[0] {
		t.Fatal("Y_0 fired although the child loses to its grandchild")
	}
}

func TestIndependentSubset(t *testing.T) {
	g := gen.Cycle(10)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ind := IndependentSubset(g, all)
	if len(ind) < 10/3 {
		t.Fatalf("independent subset too small: %d", len(ind))
	}
	in := make(map[int]bool)
	for _, v := range ind {
		in[v] = true
	}
	for _, v := range ind {
		for _, w := range g.Neighbors(v) {
			if in[int(w)] {
				t.Fatalf("edge (%d,%d) inside subset", v, w)
			}
		}
	}
}

func TestIndependentSubsetSizeGuarantee(t *testing.T) {
	// On an arboricity-α graph the greedy subset of the whole vertex set
	// has size ≥ n/(2α+1) (average degree < 2α).
	for alpha := 1; alpha <= 4; alpha++ {
		g := gen.UnionOfTrees(200, alpha, rng.New(uint64(alpha)))
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		ind := IndependentSubset(g, all)
		if want := g.N() / (2*alpha + 1); len(ind) < want {
			t.Fatalf("alpha=%d: subset %d < guarantee %d", alpha, len(ind), want)
		}
	}
}
