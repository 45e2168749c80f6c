package graph

import (
	"errors"
	"fmt"
)

// Orientation assigns each edge of a graph a direction. In this repository
// orientations always point "up": a vertex's out-neighbors are its parents
// in the sense of the paper (Section 2: an arboricity-α graph admits an
// orientation with out-degree ≤ α; out-neighbors are Parent(v), in-neighbors
// Child(v)). The analysis of the core algorithm quantifies over such an
// orientation; the algorithm itself never sees it.
type Orientation struct {
	g   *Graph
	out [][]int // out[v] = parents of v, sorted
	in  [][]int // in[v]  = children of v, sorted
}

// Graph returns the underlying graph.
func (o *Orientation) Graph() *Graph { return o.g }

// Parents returns the out-neighbors of v (aliases internal storage).
func (o *Orientation) Parents(v int) []int { return o.out[v] }

// Children returns the in-neighbors of v (aliases internal storage).
func (o *Orientation) Children(v int) []int { return o.in[v] }

// MaxOutDegree returns the maximum out-degree over all vertices.
func (o *Orientation) MaxOutDegree() int {
	max := 0
	for v := range o.out {
		if d := len(o.out[v]); d > max {
			max = d
		}
	}
	return max
}

// Validate checks that the orientation covers every edge exactly once and
// orients only real edges.
func (o *Orientation) Validate() error {
	count := 0
	for v := range o.out {
		for _, p := range o.out[v] {
			if !o.g.HasEdge(v, p) {
				return fmt.Errorf("graph: oriented non-edge (%d,%d)", v, p)
			}
			count++
		}
	}
	if count != o.g.M() {
		return fmt.Errorf("graph: orientation covers %d edges, graph has %d", count, o.g.M())
	}
	for v := range o.in {
		for _, c := range o.in[v] {
			if !contains(o.out[c], v) {
				return fmt.Errorf("graph: in/out mismatch at (%d,%d)", c, v)
			}
		}
	}
	return nil
}

func contains(sorted []int, x int) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// OrientByOrder orients every edge from the earlier vertex to the later
// vertex in the given total order (position[v] = rank of v). With a
// degeneracy (peel) order this yields out-degree ≤ degeneracy ≤ 2α-1.
func (g *Graph) OrientByOrder(position []int) (*Orientation, error) {
	if len(position) != g.N() {
		return nil, errors.New("graph: position slice has wrong length")
	}
	o := &Orientation{
		g:   g,
		out: make([][]int, g.N()),
		in:  make([][]int, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		for _, x := range g.Neighbors(v) {
			w := int(x)
			// Edges go from lower rank to higher rank; ties are impossible
			// in a permutation but broken by ID defensively.
			if position[v] < position[w] || (position[v] == position[w] && v < w) {
				o.out[v] = append(o.out[v], w)
				o.in[w] = append(o.in[w], v)
			}
		}
	}
	return o, nil
}

// DegeneracyOrder computes a peel order by repeatedly removing a minimum
// degree vertex (bucket queue, O(n+m)). It returns the order (order[i] is
// the i-th vertex peeled) and the degeneracy: the maximum, over peels, of
// the removed vertex's residual degree.
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue keyed by residual degree.
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n)
	order = make([]int, 0, n)
	cur := 0
	for len(order) < n {
		// The minimum residual degree can only decrease by at most... it
		// can drop below cur when neighbors of the last peel lose an edge,
		// so rewind by one each iteration before scanning up.
		if cur > 0 {
			cur--
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if removed[v] || deg[v] != cur {
			continue // stale entry
		}
		removed[v] = true
		order = append(order, v)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], int(w))
			}
		}
	}
	return order, degeneracy
}

// OrientByDegeneracy orients the graph along a degeneracy order so that
// out-degree ≤ degeneracy. This is the orientation the paper's analysis
// posits for an arboricity-α graph (out-degree ≤ 2α-1 ≥ α-quality in
// general; exact α-orientations require flow techniques the analysis does
// not need).
func (g *Graph) OrientByDegeneracy() (*Orientation, int) {
	order, d := g.DegeneracyOrder()
	position := make([]int, g.N())
	for i, v := range order {
		position[v] = i
	}
	o, err := g.OrientByOrder(position)
	if err != nil {
		// len(position) == g.N() by construction; unreachable.
		panic(err)
	}
	return o, d
}

// ArboricityBounds returns lower and upper bounds on the arboricity:
//
//   - lower: the Nash-Williams density bound max_S ⌈m_S/(n_S-1)⌉ evaluated
//     over the suffixes of a degeneracy order (which include the densest
//     cores) and the whole graph;
//   - upper: the degeneracy d (every d-degenerate graph splits into d
//     forests by the out-edge partition of a degeneracy orientation).
func (g *Graph) ArboricityBounds() (lower, upper int) {
	order, d := g.DegeneracyOrder()
	upper = d
	if d == 0 {
		return 0, 0
	}
	// Walk the peel order in reverse, growing the densest-suffix subgraph.
	inSet := make([]bool, g.N())
	nS, mS := 0, 0
	best := 1
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		inSet[v] = true
		nS++
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				mS++
			}
		}
		if nS >= 2 {
			if b := (mS + nS - 2) / (nS - 1); b > best { // ⌈mS/(nS-1)⌉
				best = b
			}
		}
	}
	lower = best
	if upper < lower {
		upper = lower
	}
	return lower, upper
}
