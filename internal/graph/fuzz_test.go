package graph

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList exercises the parser against arbitrary input: it must
// either return an error or a structurally valid graph that round-trips.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("3 2\n0 1\n1 2\n")
	f.Add("0 0\n")
	f.Add("2 1\n0 1\n")
	f.Add("garbage")
	f.Add("5 1\n4 4\n")
	f.Add("3 2\n0 1\n")
	f.Add("-1 0\n")
	f.Add("1000000000 0\n")
	f.Add("3 -1\n")
	f.Add("2 4611686018427387904\n0 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		// Guard against astronomically large vertex counts: New allocates
		// O(n), which is correct behaviour but useless to fuzz. The edge
		// count needs no guard: the parser sizes nothing from it.
		var n, m int
		if _, err := parseHeader(input, &n, &m); err == nil && n > 1<<16 {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejecting is always acceptable
		}
		// Accepted graphs must be internally consistent and round-trip.
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
			for _, x := range g.Neighbors(v) {
				w := int(x)
				if w < 0 || w >= g.N() || w == v {
					t.Fatalf("invalid neighbor %d of %d", w, v)
				}
				if !g.HasEdge(w, v) {
					t.Fatalf("asymmetric edge (%d,%d)", v, w)
				}
			}
		}
		if sum != 2*g.M() {
			t.Fatalf("handshake violated: %d vs %d", sum, 2*g.M())
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d", g.N(), g.M(), g2.N(), g2.M())
		}
	})
}

// parseHeader peeks at the "n m" header without committing to a parse.
func parseHeader(s string, n, m *int) (int, error) {
	return fmt.Fscan(strings.NewReader(s), n, m)
}

// FuzzNewGraph exercises the constructor with arbitrary edge soup encoded
// as byte pairs: it must reject invalid edges and otherwise produce a
// consistent simple graph. Reset must build the same input into a graph
// that last held a larger one — more vertices and adjacency than any
// input — with New's result: the same graph, or the same error and the
// larger graph left unchanged.
func FuzzNewGraph(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(2), []byte{0, 0})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0, 1, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		if len(raw) > 2048 {
			return
		}
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{U: int(raw[i]), V: int(raw[i+1])})
		}
		g, err := New(int(n), edges)
		checkResetMatchesNew(t, int(n), edges, g, err)
		valid := true
		for _, e := range edges {
			if e.U == e.V || e.U >= int(n) || e.V >= int(n) {
				valid = false
			}
		}
		if !valid {
			if err == nil {
				t.Fatal("invalid edge accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		// Dedup semantics: M is the number of distinct undirected pairs.
		distinct := map[[2]int]bool{}
		for _, e := range edges {
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			distinct[[2]int{u, v}] = true
		}
		if g.M() != len(distinct) {
			t.Fatalf("M = %d, distinct pairs = %d", g.M(), len(distinct))
		}
	})
}

// circulant is the edge list of a 300-vertex circulant of degree 8, more
// vertices and adjacency than any FuzzNewGraph input.
var circulant = func() (edges []Edge) {
	for v := 0; v < 300; v++ {
		for d := 1; d <= 4; d++ {
			edges = append(edges, Edge{U: v, V: (v + d) % 300})
		}
	}
	return edges
}()

// checkResetMatchesNew rebuilds n and edges into a graph that last held
// the circulant and fails unless Reset gives what New gave: g, or err
// with the circulant unchanged.
func checkResetMatchesNew(t *testing.T, n int, edges []Edge, g *Graph, err error) {
	t.Helper()
	re, was := MustNew(300, circulant), MustNew(300, circulant)
	rerr := re.Reset(n, edges)
	switch {
	case (rerr == nil) != (err == nil):
		t.Fatalf("Reset error %v, New error %v", rerr, err)
	case err != nil && rerr.Error() != err.Error():
		t.Fatalf("Reset error %q, New error %q", rerr, err)
	case err != nil && !sameCSR(re, was):
		t.Fatal("a failed Reset changed the graph")
	case err == nil && !sameCSR(re, g):
		t.Fatalf("Reset built offsets %v adjacency %v, New %v and %v", re.offsets, re.adj, g.offsets, g.adj)
	}
}

// sameCSR reports whether two graphs hold the same offsets and adjacency.
func sameCSR(a, b *Graph) bool {
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.adj, b.adj)
}
