package graph

import (
	"bytes"
	"fmt"
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
// consistent simple graph.
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
