package base

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/congest"
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

func TestCount(t *testing.T) {
	statuses := []Status{StatusInMIS, StatusBad, StatusInMIS, StatusActive}
	if Count(statuses, StatusInMIS) != 2 || Count(statuses, StatusBad) != 1 || Count(statuses, StatusDominated) != 0 {
		t.Fatal("Count wrong")
	}
}

// atVertex runs one round on g in which vertex v calls f with its
// Context, then every vertex halts. f reports through t.Errorf.
func atVertex(t *testing.T, g *graph.Graph, v int, f func(ctx *congest.Context)) {
	t.Helper()
	called := false
	factory := func(u int) congest.Node {
		if u != v {
			return &once{}
		}
		return &once{f: func(ctx *congest.Context) { called = true; f(ctx) }}
	}
	if _, err := congest.NewRunner(g, factory, congest.Options{Seed: 1}).Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatalf("vertex %d never ran", v)
	}
}

// once calls f, if any, in round 1 and halts.
type once struct{ f func(*congest.Context) }

func (o *once) Init(*congest.Context) {}

func (o *once) Round(ctx *congest.Context, _ []congest.Message) {
	if o.f != nil {
		o.f(ctx)
	}
	ctx.Halt()
}

func TestActiveSetBasics(t *testing.T) {
	// Vertex 0's neighbors are 2, 5 and 9; 4 is a vertex but no neighbor,
	// 100 no vertex at all.
	g := graph.MustNew(10, []graph.Edge{{U: 0, V: 2}, {U: 0, V: 5}, {U: 0, V: 9}})
	atVertex(t, g, 0, func(ctx *congest.Context) {
		var s ActiveSet
		if s.Count(ctx) != 3 {
			t.Errorf("count = %d", s.Count(ctx))
			return
		}
		if !s.Contains(ctx, 5) || s.Contains(ctx, 4) {
			t.Error("Contains wrong")
			return
		}
		s.Remove(ctx, 5)
		if s.Count(ctx) != 2 || s.Contains(ctx, 5) {
			t.Error("Remove failed")
			return
		}
		// Removing again, or removing a stranger, is a no-op.
		s.Remove(ctx, 5)
		s.Remove(ctx, 4)
		s.Remove(ctx, 100)
		if s.Count(ctx) != 2 {
			t.Errorf("count after no-op removals = %d", s.Count(ctx))
		}
	})
}

func TestActiveSetEachOrdered(t *testing.T) {
	g := graph.MustNew(8, []graph.Edge{{U: 0, V: 7}, {U: 0, V: 3}, {U: 0, V: 5}, {U: 0, V: 1}})
	atVertex(t, g, 0, func(ctx *congest.Context) {
		var s ActiveSet
		s.Remove(ctx, 3)
		var got [][2]int
		s.Each(ctx, func(slot, id int) { got = append(got, [2]int{slot, id}) })
		if want := [][2]int{{0, 1}, {2, 5}, {3, 7}}; !slices.Equal(got, want) {
			t.Errorf("Each visits (slot, ID) %v, want %v", got, want)
		}
	})
}

func TestActiveSetEmpty(t *testing.T) {
	g := graph.MustNew(2, nil)
	atVertex(t, g, 0, func(ctx *congest.Context) {
		var s ActiveSet
		s.Remove(ctx, 1)
		if s.Count(ctx) != 0 || s.Contains(ctx, 1) {
			t.Error("empty set has members")
		}
		s.Each(ctx, func(int, int) { t.Error("Each on empty set called f") })
	})
}

// probe checks an ActiveSet against its own map of removed neighbors.
// Every round it removes three IDs drawn from its stream — a neighbor
// half the time, so repeats come up, and otherwise any ID in [-1, n], so
// strangers do — then checks Count, Contains for every ID in [-1, n] and
// Each's (slot, ID) sequence against the map, and panics, which fails the
// run, on any difference.
type probe struct {
	set     ActiveSet
	removed map[int]bool
}

func (p *probe) Init(ctx *congest.Context) {
	p.removed = make(map[int]bool)
	p.check(ctx)
}

func (p *probe) Round(ctx *congest.Context, _ []congest.Message) {
	row, r := ctx.Neighbors(), ctx.RNG()
	for k := 0; k < 3; k++ {
		id := r.Intn(ctx.N()+2) - 1
		if len(row) > 0 && r.Bool(0.5) {
			id = int(row[r.Intn(len(row))])
		}
		p.set.Remove(ctx, id)
		if slices.Contains(row, int32(id)) {
			p.removed[id] = true
		}
	}
	p.check(ctx)
	if ctx.Round() == 30 {
		ctx.Halt()
	}
}

func (p *probe) check(ctx *congest.Context) {
	row := ctx.Neighbors()
	if got, want := p.set.Count(ctx), len(row)-len(p.removed); got != want {
		panic(fmt.Sprintf("Count = %d, want %d", got, want))
	}
	for id := -1; id <= ctx.N(); id++ {
		if got, want := p.set.Contains(ctx, id), slices.Contains(row, int32(id)) && !p.removed[id]; got != want {
			panic(fmt.Sprintf("Contains(%d) = %v, want %v", id, got, want))
		}
	}
	var got, want [][2]int
	p.set.Each(ctx, func(slot, id int) { got = append(got, [2]int{slot, id}) })
	for slot, id := range row {
		if !p.removed[int(id)] {
			want = append(want, [2]int{slot, int(id)})
		}
	}
	if !slices.Equal(got, want) {
		panic(fmt.Sprintf("Each visits %v, want %v", got, want))
	}
}

// TestActiveNeighborsMatchesActiveSets runs probe on a random graph with
// an isolated vertex, sequentially and on three pool shards: no vertex's
// ActiveSet may disagree with its map of active neighbors in any round.
func TestActiveNeighborsMatchesActiveSets(t *testing.T) {
	const n = 40
	r := rng.New(7)
	var edges []graph.Edge
	for u := 0; u < n-1; u++ { // vertex n-1 stays isolated
		for w := u + 1; w < n-1; w++ {
			if r.Intn(5) == 0 {
				edges = append(edges, graph.Edge{U: u, V: w})
			}
		}
	}
	g := graph.MustNew(n, edges)
	for _, opts := range []congest.Options{
		{Seed: 1},
		{Seed: 1, Driver: congest.DriverPool, Workers: 3},
	} {
		if _, err := congest.NewRunner(g, func(int) congest.Node { return &probe{} }, opts).Run(); err != nil {
			t.Fatalf("%v driver: %v", opts.Driver, err)
		}
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
