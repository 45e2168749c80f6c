package base

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestSlabHandsOutFreshNodes(t *testing.T) {
	// Past several chunk boundaries, every node must be distinct and
	// still hold the value it was made with once later chunks are carved.
	const total = 3 * slabMaxChunk
	var s Slab[[2]int]
	nodes := make([]*[2]int, total)
	seen := make(map[*[2]int]bool, total)
	for i := range nodes {
		nodes[i] = s.New([2]int{i, -i})
		if seen[nodes[i]] {
			t.Fatalf("node %d reuses an earlier node's memory", i)
		}
		seen[nodes[i]] = true
	}
	for i, p := range nodes {
		if *p != [2]int{i, -i} {
			t.Fatalf("node %d holds %v", i, *p)
		}
	}
	if s.size != slabMaxChunk {
		t.Fatalf("chunk length %d after %d nodes, want the %d cap", s.size, total, slabMaxChunk)
	}
}

func TestActiveSetBasics(t *testing.T) {
	s := NewActiveSet([]int{2, 5, 9})
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if !s.Contains(5) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	s.Remove(5)
	if s.Count() != 2 || s.Contains(5) {
		t.Fatal("Remove failed")
	}
	// Removing again, or removing a stranger, is a no-op.
	s.Remove(5)
	s.Remove(100)
	if s.Count() != 2 {
		t.Fatalf("count after no-op removals = %d", s.Count())
	}
}

func TestActiveSetEachOrdered(t *testing.T) {
	s := NewActiveSet([]int{1, 3, 5, 7})
	s.Remove(3)
	var got []int
	s.Each(func(id int) { got = append(got, id) })
	want := []int{1, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestActiveSetEmpty(t *testing.T) {
	s := NewActiveSet(nil)
	if s.Count() != 0 {
		t.Fatal("empty set has members")
	}
	s.Each(func(int) { t.Fatal("Each on empty set called f") })
}

func TestActiveNeighborsMatchesActiveSets(t *testing.T) {
	// The run-wide tracker must agree with one ActiveSet per vertex under
	// any removal sequence, repeats and non-neighbors included.
	const n = 40
	r := rng.New(7)
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			if r.Intn(5) == 0 {
				edges = append(edges, graph.Edge{U: u, V: w})
			}
		}
	}
	g := graph.MustNew(n, edges)
	a := NewActiveNeighbors(g)
	sets := make([]ActiveSet, n)
	for v := range sets {
		sets[v] = NewActiveSet(g.Neighbors(v))
	}
	for step := 0; step <= 1500; step++ {
		if step%100 == 0 {
			for v := 0; v < n; v++ {
				if a.Count(v) != sets[v].Count() {
					t.Fatalf("step %d: Count(%d) = %d, ActiveSet says %d", step, v, a.Count(v), sets[v].Count())
				}
				for id := -1; id <= n; id++ {
					if a.Contains(v, id) != sets[v].Contains(id) {
						t.Fatalf("step %d: Contains(%d, %d) = %v", step, v, id, a.Contains(v, id))
					}
				}
			}
		}
		v, id := r.Intn(n), r.Intn(n)
		a.Remove(v, id)
		sets[v].Remove(id)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusActive:    "active",
		StatusInMIS:     "in-mis",
		StatusDominated: "dominated",
		StatusBad:       "bad",
		Status(99):      "status(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestMISSet(t *testing.T) {
	set := MISSet([]Status{StatusInMIS, StatusDominated, StatusInMIS})
	if !set[0] || set[1] || !set[2] {
		t.Fatalf("set = %v", set)
	}
}

func TestVerifyStatusesAccepts(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err := VerifyStatuses(g, []Status{StatusInMIS, StatusDominated, StatusInMIS}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyStatusesRejectsActive(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
	err := VerifyStatuses(g, []Status{StatusInMIS, StatusActive})
	if err == nil || !strings.Contains(err.Error(), "active") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyStatusesRejectsFalseDomination(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}})
	// Node 2 claims dominated but has no neighbors at all.
	err := VerifyStatuses(g, []Status{StatusInMIS, StatusDominated, StatusDominated})
	if err == nil || !strings.Contains(err.Error(), "no neighbor in MIS") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyStatusesRejectsInvalid(t *testing.T) {
	g := graph.MustNew(1, nil)
	if err := VerifyStatuses(g, []Status{Status(0)}); err == nil {
		t.Fatal("invalid status accepted")
	}
}
