package graph

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
)

// path returns the path graph on n vertices.
func path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{U: i, V: i + 1})
	}
	return MustNew(n, edges)
}

// cycle returns the cycle graph on n vertices.
func cycle(n int) *Graph {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{U: i, V: (i + 1) % n})
	}
	return MustNew(n, edges)
}

// complete returns K_n.
func complete(n int) *Graph {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j})
		}
	}
	return MustNew(n, edges)
}

// randomGraph returns a GNP-ish graph for property tests.
func randomGraph(r *rng.RNG, n int, p float64) *Graph {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(p) {
				edges = append(edges, Edge{U: i, V: j})
			}
		}
	}
	return MustNew(n, edges)
}

func TestNewBasic(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
}

func TestNewRejectsSelfLoop(t *testing.T) {
	_, err := New(3, []Edge{{1, 1}})
	if !errors.Is(err, ErrBadEdge) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	for _, e := range []Edge{{-1, 0}, {0, 3}, {5, 1}} {
		if _, err := New(3, []Edge{e}); !errors.Is(err, ErrBadEdge) {
			t.Fatalf("edge %v: err = %v", e, err)
		}
	}
}

func TestNewRejectsNegativeN(t *testing.T) {
	if _, err := New(-1, nil); err == nil {
		t.Fatal("expected error")
	}
}

// TestNewRejectsNAboveInt32 requires New to refuse a vertex count that
// does not fit the engine's int32 vertex IDs, before it allocates the 16 GB
// the count would ask for.
func TestNewRejectsNAboveInt32(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int is 32 bits: no vertex count exceeds math.MaxInt32")
	}
	top := int64(math.MaxInt32)
	n := int(top + 1)
	if _, err := New(n, nil); err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("New(%d) returned %v, want an error naming the int32 bound", n, err)
	}
}

// TestDegreeSumBound checks New's degree-sum bound at its boundary through
// checkDegreeSum, so that no test allocates the gigabytes an edge list
// that long would take: the CSR offsets are int32, so a degree sum of
// math.MaxInt32 fits and one more is rejected with an error naming it.
func TestDegreeSumBound(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("int is 32 bits: no degree sum exceeds math.MaxInt32")
	}
	if err := checkDegreeSum(math.MaxInt32); err != nil {
		t.Fatalf("degree sum %d rejected: %v", math.MaxInt32, err)
	}
	over := int(int64(math.MaxInt32) + 1)
	if err := checkDegreeSum(over); err == nil || !strings.Contains(err.Error(), strconv.Itoa(over)) {
		t.Fatalf("degree sum %d returned %v, want an error naming it", over, err)
	}
}

// TestWideIDsMiss looks up IDs outside int32 whose low 32 bits are a real
// neighbor, 1, of vertex 0: Slot and HasEdge must miss each of them, not
// narrow it onto the neighbor.
func TestWideIDsMiss(t *testing.T) {
	g := path(3)
	if Slot(g.Neighbors(0), 1) != 0 || !g.HasEdge(0, 1) {
		t.Fatal("neighbor 1 of vertex 0 not found")
	}
	for _, v := range []int{1<<32 | 1, -1<<32 | 1, math.MinInt64 | 1} {
		if i := Slot(g.Neighbors(0), v); i != -1 {
			t.Errorf("Slot(row of 0, %#x) = %d, want -1", v, i)
		}
		if g.HasEdge(0, v) {
			t.Errorf("HasEdge(0, %#x) = true", v)
		}
	}
}

// TestGraphBytes is the CSR memory gate: a 2^14-vertex graph of degree 8
// must keep 4 bytes per offset and per adjacency entry, with no slack, and
// New may allocate no more than that — it counts degrees and fills rows
// in the offsets themselves, and a duplicate-free edge list needs no
// compacting copy.
func TestGraphBytes(t *testing.T) {
	const n, k = 1 << 14, 4
	edges := make([]Edge, 0, k*n)
	for v := 0; v < n; v++ {
		for d := 1; d <= k; d++ {
			edges = append(edges, Edge{U: v, V: (v + d) % n})
		}
	}
	csr := 4 * (n + 1 + 2*len(edges))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	var g *Graph
	newBytes := ^uint64(0)
	for rep := 0; rep < 3; rep++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		g = MustNew(n, edges)
		runtime.ReadMemStats(&ms)
		newBytes = min(newBytes, ms.TotalAlloc-before)
	}
	kept := cap(g.offsets)*int(unsafe.Sizeof(g.offsets[0])) + cap(g.adj)*int(unsafe.Sizeof(g.adj[0]))
	t.Logf("CSR keeps %d bytes (%.1f B/vertex); New allocates %d (%.1f B/vertex)",
		kept, float64(kept)/n, newBytes, float64(newBytes)/n)
	if kept != csr {
		t.Errorf("CSR keeps %d bytes, want %d: 4 per offset and per adjacency entry", kept, csr)
	}
	// One page of size-class rounding per allocation.
	if budget := uint64(csr + 2*8192); newBytes > budget {
		t.Errorf("New allocates %d bytes, budget %d: the CSR alone", newBytes, budget)
	}
}

func TestNewDedupesParallelEdges(t *testing.T) {
	g := MustNew(2, []Edge{{0, 1}, {1, 0}, {0, 1}})
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("degrees wrong after dedupe")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustNew(0, nil)
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph stats wrong")
	}
	if _, c := g.Components(); c != 0 {
		t.Fatal("empty graph has components")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustNew(5, []Edge{{0, 4}, {0, 2}, {0, 1}, {0, 3}})
	nb := g.Neighbors(0)
	want := []int32{1, 2, 3, 4}
	for i, w := range want {
		if nb[i] != w {
			t.Fatalf("neighbors(0) = %v", nb)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	r := rng.New(10)
	g := randomGraph(r, 20, 0.3)
	g2 := MustNew(g.N(), g.Edges())
	if g2.M() != g.M() {
		t.Fatalf("m changed: %d -> %d", g.M(), g2.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != g2.Degree(v) {
			t.Fatalf("degree(%d) changed", v)
		}
	}
}

func TestMaxAvgDegree(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if g.MaxDegree() != 3 {
		t.Fatalf("maxdeg = %d", g.MaxDegree())
	}
}

func TestBFSForest(t *testing.T) {
	// Components {0,1,2,3}, {4,5} and the isolated vertex 6. Each is rooted
	// at its lowest vertex, and 1 is reached through 2, which precedes 3
	// in 0's row.
	g := MustNew(7, []Edge{{0, 2}, {0, 3}, {2, 1}, {3, 1}, {5, 4}})
	want := []int{-1, 2, 0, 0, -1, 4, -1}
	got := g.BFSForest()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("BFSForest() = %v, want %v", got, want)
		}
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := MustNew(7, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("first triangle split")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Fatal("second triangle split")
	}
	if comp[0] == comp[3] || comp[0] == comp[6] || comp[3] == comp[6] {
		t.Fatal("components merged")
	}
	sizes := ComponentSizes(comp, count)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 7 {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestBFSOnPath(t *testing.T) {
	g := path(5)
	dist := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d] = %d", v, dist[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}})
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Fatalf("dist to isolated vertex = %d", dist[2])
	}
}

func TestIsForest(t *testing.T) {
	if !path(10).IsForest() {
		t.Fatal("path should be forest")
	}
	if cycle(5).IsForest() {
		t.Fatal("cycle is not a forest")
	}
	if !MustNew(4, nil).IsForest() {
		t.Fatal("edgeless graph is a forest")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycle(6)
	sub, orig, err := g.InducedSubgraph([]int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 4 {
		t.Fatalf("sub n = %d", sub.N())
	}
	// Edges 0-1 and 1-2 survive; 4 is isolated within the set.
	if sub.M() != 2 {
		t.Fatalf("sub m = %d", sub.M())
	}
	if orig[3] != 4 {
		t.Fatalf("orig = %v", orig)
	}
	if sub.Degree(3) != 0 {
		t.Fatal("vertex 4 should be isolated in subgraph")
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := path(4)
	if _, _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{99}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	r := rng.New(20)
	g := randomGraph(r, 30, 0.2)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed graph: %d/%d -> %d/%d", g.N(), g.M(), g2.N(), g2.M())
	}
	for v := 0; v < g.N(); v++ {
		nb1, nb2 := g.Neighbors(v), g2.Neighbors(v)
		if len(nb1) != len(nb2) {
			t.Fatalf("degree(%d) changed", v)
		}
		for i := range nb1 {
			if nb1[i] != nb2[i] {
				t.Fatalf("adjacency of %d changed", v)
			}
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("3 2\n0 1\n")); err == nil {
		t.Fatal("truncated edge list accepted")
	}
	// Headers whose counts would size an allocation: each must fail with
	// an error, not a makeslice panic.
	for _, in := range []string{"3 -1\n", "-1 0\n", "2 4611686018427387904\n0 1\n"} {
		if _, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
			t.Fatalf("header %q accepted", in)
		}
	}
}

func TestHasEdgeSymmetricProperty(t *testing.T) {
	r := rng.New(30)
	g := randomGraph(r, 25, 0.25)
	if err := quick.Check(func(a, b uint8) bool {
		u, v := int(a)%g.N(), int(b)%g.N()
		return g.HasEdge(u, v) == g.HasEdge(v, u)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSumEqualsTwiceM(t *testing.T) {
	r := rng.New(40)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 40, 0.15)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		if sum != 2*g.M() {
			t.Fatalf("handshake lemma violated: sum=%d m=%d", sum, g.M())
		}
	}
}

func TestOffsetTilesAdjacency(t *testing.T) {
	// The rows' offsets follow one another in vertex order: each row
	// starts where the previous one ends, the first at 0 and the last
	// ending at 2m, and spans its vertex's degree. Sizing per-slot data
	// over a range of rows (congest's marks) relies on it.
	g := randomGraph(rng.New(41), 40, 0.15)
	off := g.Rows(0, g.N()).Off
	if off[0] != 0 || int(off[g.N()]) != 2*g.M() {
		t.Fatalf("Off[0] = %d, Off[n] = %d, 2m = %d", off[0], off[g.N()], 2*g.M())
	}
	for v := 0; v < g.N(); v++ {
		if int(off[v+1]-off[v]) != g.Degree(v) {
			t.Fatalf("row %d spans %d entries, degree %d", v, off[v+1]-off[v], g.Degree(v))
		}
	}
}

func TestDistancePowerPath(t *testing.T) {
	// Path 0..5: distances are |i-j|. G^[2,3] connects pairs at 2 or 3.
	g := path(6)
	h, err := g.DistancePower(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			inRange := j-i >= 2 && j-i <= 3
			if inRange {
				want++
			}
			if h.HasEdge(i, j) != inRange {
				t.Fatalf("edge (%d,%d): got %v want %v", i, j, h.HasEdge(i, j), inRange)
			}
		}
	}
	if h.M() != want {
		t.Fatalf("m = %d want %d", h.M(), want)
	}
}

func TestDistancePowerOneIsIdentity(t *testing.T) {
	r := rng.New(70)
	g := randomGraph(r, 20, 0.2)
	h, err := g.DistancePower(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M() {
		t.Fatalf("G^[1,1] has %d edges, G has %d", h.M(), g.M())
	}
}

func TestDistancePowerDisconnected(t *testing.T) {
	// Unreachable pairs (distance -1) must never be connected.
	g := MustNew(4, []Edge{{0, 1}, {2, 3}})
	h, err := g.DistancePower(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.HasEdge(0, 2) || h.HasEdge(1, 3) {
		t.Fatal("distance power bridged components")
	}
}

func TestDistancePowerRejectsBadRange(t *testing.T) {
	g := path(3)
	for _, r := range [][2]int{{0, 5}, {3, 2}, {-1, 1}} {
		if _, err := g.DistancePower(r[0], r[1]); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
}

func TestDistancePowerLemma37Shape(t *testing.T) {
	// The lemma's use: nodes of a sparse set S form a G^[7,13] component
	// only if they chain at distances in [7,13]; spreading S out in G
	// keeps G^[7,13][S] edgeless. Sanity-check with an independent-ish set
	// on a long path: vertices 0, 20, 40 are ≥ 20 apart, no edges.
	g := path(60)
	h, err := g.DistancePower(7, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 20}, {20, 40}, {0, 40}} {
		if h.HasEdge(pair[0], pair[1]) {
			t.Fatal("far vertices connected in G^[7,13]")
		}
	}
	// And 0-10 (distance 10) is connected.
	if !h.HasEdge(0, 10) {
		t.Fatal("distance-10 pair not connected")
	}
}
