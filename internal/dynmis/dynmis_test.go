package dynmis_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynmis"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// path returns the path graph 0-1-...-(n-1).
func path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	return graph.MustNew(n, edges)
}

// mustEngine bootstraps an engine over g and fails the test on error.
func mustEngine(t *testing.T, g *graph.Graph, opts dynmis.Options) *dynmis.Engine {
	t.Helper()
	e, err := dynmis.New(g, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	return e
}

// apply applies one batch, asserting success and a valid MIS afterwards.
func apply(t *testing.T, e *dynmis.Engine, b dynmis.Batch) dynmis.BatchReport {
	t.Helper()
	rep, err := e.Apply(b)
	if err != nil {
		t.Fatalf("Apply(%v): %v", b, err)
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("after Apply(%v): %v", b, err)
	}
	return rep
}

func TestBootstrapIsBatchZero(t *testing.T) {
	var sink trace.MemorySink
	e := mustEngine(t, path(8), dynmis.Options{Seed: 7, Events: &sink})
	if len(sink.Events) != 1 || sink.Events[0].Type != trace.EvRepair {
		t.Fatalf("bootstrap emitted %v, want one repair event", sink.Events)
	}
	if boot := sink.Events[0]; boot.Round != 0 || boot.V != 8 || boot.X == 0 {
		t.Fatalf("bootstrap event = %+v, want batch 0 repairing all 8 vertices", boot)
	}
	if e.Fingerprint() == 0 {
		t.Fatal("zero stream fingerprint after bootstrap")
	}
}

func TestEmptyGraph(t *testing.T) {
	e := mustEngine(t, graph.MustNew(0, nil), dynmis.Options{Seed: 1})
	rep := apply(t, e, dynmis.Batch{dynmis.InsertNode(-1)})
	if rep.Region != 1 || !e.IsInMIS(0) {
		t.Fatalf("first node not repaired into MIS: rep=%+v", rep)
	}
}

func TestEmptyBatchIsNoOp(t *testing.T) {
	e := mustEngine(t, path(5), dynmis.Options{Seed: 3})
	before, fp := e.MIS(), e.Fingerprint()
	rep := apply(t, e, nil)
	if rep.Seeds != 0 || rep.Region != 0 || rep.Rounds != 0 {
		t.Fatalf("empty batch repaired something: %+v", rep)
	}
	after := e.MIS()
	if len(before) != len(after) {
		t.Fatalf("empty batch changed the MIS: %v -> %v", before, after)
	}
	// The fold still advances: every batch, even a no-op, is part of the
	// stream's identity.
	if e.Fingerprint() == fp {
		t.Fatal("no-op batch did not fold into the stream fingerprint")
	}
}

func TestDeleteMISVertex(t *testing.T) {
	// Star: bootstrap puts either the center or all leaves in the MIS.
	// Removing an MIS member orphans its exclusive neighbors; repair must
	// re-cover them.
	g := graph.MustNew(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	e := mustEngine(t, g, dynmis.Options{Seed: 11})
	// Delete every MIS member in one batch: whichever side the bootstrap
	// chose (center or leaves), every surviving vertex is orphaned and the
	// repair must rebuild the set from them.
	victims := e.MIS()
	var b dynmis.Batch
	for _, v := range victims {
		b = append(b, dynmis.RemoveNode(v))
	}
	rep := apply(t, e, b)
	for _, v := range victims {
		if e.IsInMIS(v) {
			t.Fatalf("removed vertex %d still reported in MIS", v)
		}
	}
	if rep.Seeds == 0 || rep.Region == 0 {
		t.Fatalf("deleting MIS %v triggered no repair: %+v", victims, rep)
	}
	if got := len(e.MIS()); got == 0 {
		t.Fatal("repair left the set empty with live vertices remaining")
	}
}

func TestIsolateVertex(t *testing.T) {
	// Remove every edge of a dominated vertex: it becomes orphaned and must
	// join the set itself.
	e := mustEngine(t, path(3), dynmis.Options{Seed: 5})
	// Path 0-1-2: whatever the bootstrap chose, deleting both edges
	// isolates all three vertices, so all three must end up in the set.
	apply(t, e, dynmis.Batch{dynmis.RemoveEdge(0, 1), dynmis.RemoveEdge(1, 2)})
	for v := 0; v < 3; v++ {
		if !e.IsInMIS(v) {
			t.Fatalf("isolated vertex %d outside MIS", v)
		}
	}
}

func TestReinsertRemovedEdge(t *testing.T) {
	// Remove an edge, then re-insert it: the graph returns to the original
	// topology and the MIS must be valid at every step. If both endpoints
	// joined the set while the edge was gone, the re-insertion creates a
	// violation the repair must resolve.
	e := mustEngine(t, path(2), dynmis.Options{Seed: 2})
	apply(t, e, dynmis.Batch{dynmis.RemoveEdge(0, 1)})
	if !e.IsInMIS(0) || !e.IsInMIS(1) {
		t.Fatalf("after removing the only edge: MIS=%v", e.MIS())
	}
	rep := apply(t, e, dynmis.Batch{dynmis.InsertEdge(0, 1)})
	if rep.Seeds == 0 || rep.Region == 0 {
		t.Fatalf("re-inserting the edge between two MIS vertices triggered no repair: %+v", rep)
	}
}

func TestInsertNodeAllocatesSequentialIDs(t *testing.T) {
	e := mustEngine(t, path(3), dynmis.Options{Seed: 9})
	apply(t, e, dynmis.Batch{dynmis.InsertNode(3), dynmis.InsertNode(4), dynmis.InsertEdge(3, 4)})
	if got := e.Graph().NumIDs(); got != 5 {
		t.Fatalf("ID space = %d, want 5", got)
	}
	if e.IsInMIS(3) == e.IsInMIS(4) {
		t.Fatalf("adjacent new nodes 3,4 agree on membership: MIS=%v", e.MIS())
	}
	// Removed IDs are never reused.
	apply(t, e, dynmis.Batch{dynmis.RemoveNode(4)})
	apply(t, e, dynmis.Batch{dynmis.InsertNode(5)})
	if e.Graph().Alive(4) {
		t.Fatal("removed ID 4 back alive")
	}
}

func TestInsertNodeIDMismatchPoisons(t *testing.T) {
	e := mustEngine(t, path(3), dynmis.Options{Seed: 1})
	if _, err := e.Apply(dynmis.Batch{dynmis.InsertNode(99)}); err == nil {
		t.Fatal("ID mismatch accepted")
	}
	if e.Err() == nil {
		t.Fatal("engine not poisoned")
	}
	if _, err := e.Apply(nil); err == nil {
		t.Fatal("poisoned engine accepted a batch")
	}
}

func TestInvalidUpdatesPoison(t *testing.T) {
	cases := []struct {
		name string
		b    dynmis.Batch
	}{
		{"duplicate edge", dynmis.Batch{dynmis.InsertEdge(0, 1)}},
		{"absent edge", dynmis.Batch{dynmis.RemoveEdge(0, 2)}},
		{"self loop", dynmis.Batch{dynmis.InsertEdge(1, 1)}},
		{"out of range", dynmis.Batch{dynmis.InsertEdge(0, 99)}},
		{"remove dead", dynmis.Batch{dynmis.RemoveNode(1), dynmis.RemoveNode(1)}},
		{"zero op", dynmis.Batch{{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, path(3), dynmis.Options{Seed: 4})
			if _, err := e.Apply(tc.b); err == nil {
				t.Fatalf("batch %v accepted", tc.b)
			}
			if _, err := e.Apply(nil); err == nil {
				t.Fatal("engine not poisoned after invalid batch")
			} else if !strings.Contains(err.Error(), "batch") {
				t.Fatalf("sticky error lost context: %v", err)
			}
		})
	}
}

// TestApplyRejectsWideIDs: an update ID outside int32 whose low 32 bits
// name a vertex the update would accept must fail its batch, not be
// narrowed onto that vertex, and the graph must be left untouched. The
// insert-node sentinel for "any ID" is exactly -1, so -2 fails too.
func TestApplyRejectsWideIDs(t *testing.T) {
	cases := []struct {
		name string
		u    dynmis.Update
		want string
	}{
		{"insert-edge", dynmis.InsertEdge(0, 1<<32|2), "outside int32"},
		{"insert-edge negative", dynmis.InsertEdge(-1<<32|2, 0), "outside int32"},
		{"remove-edge", dynmis.RemoveEdge(0, 1<<32|1), "outside int32"},
		{"remove-edge negative", dynmis.RemoveEdge(math.MinInt64|1, 0), "outside int32"},
		{"insert-node", dynmis.InsertNode(1<<32 | 4), "outside int32"},
		{"insert-node negative", dynmis.InsertNode(-1<<32 | 4), "outside int32"},
		{"insert-node -2", dynmis.InsertNode(-2), "expected node ID -2"},
		{"remove-node", dynmis.RemoveNode(1<<32 | 3), "outside int32"},
		{"remove-node negative", dynmis.RemoveNode(-1<<32 | 3), "outside int32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, path(4), dynmis.Options{Seed: 8})
			_, err := e.Apply(dynmis.Batch{tc.u})
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "batch 1 update 0") {
				t.Fatalf("Apply(%v) = %v, want a batch 1 update 0 error naming %q", tc.u, err, tc.want)
			}
			if d := e.Graph(); d.NumIDs() != 4 || d.AliveCount() != 4 || d.M() != 3 {
				t.Fatalf("refused update changed the graph: ids=%d alive=%d m=%d", d.NumIDs(), d.AliveCount(), d.M())
			}
		})
	}
}

func TestNilGraph(t *testing.T) {
	if _, err := dynmis.New(nil, dynmis.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestAccessors(t *testing.T) {
	e := mustEngine(t, path(4), dynmis.Options{Seed: 6})
	if e.IsInMIS(-1) || e.IsInMIS(99) {
		t.Fatal("out-of-range membership reported true")
	}
	mis := e.MIS()
	for i := 1; i < len(mis); i++ {
		if mis[i-1] >= mis[i] {
			t.Fatalf("MIS() not sorted: %v", mis)
		}
	}
	for _, v := range mis {
		if !e.IsInMIS(v) {
			t.Fatalf("MIS() and IsInMIS disagree on %d", v)
		}
	}
	if rep := apply(t, e, nil); rep.Batch != 1 {
		t.Fatalf("the first batch after the bootstrap reported index %d", rep.Batch)
	}
}

func TestDGraphBasics(t *testing.T) {
	d := dynmis.NewDGraph(path(4))
	if d.NumIDs() != 4 || d.AliveCount() != 4 || d.M() != 3 {
		t.Fatalf("seed state: ids=%d alive=%d m=%d", d.NumIDs(), d.AliveCount(), d.M())
	}
	if !d.HasEdge(1, 2) || d.HasEdge(0, 2) || d.HasEdge(-1, 0) {
		t.Fatal("HasEdge wrong")
	}
	// IDs outside int32 whose low 32 bits are 0's neighbor 1 are no edge.
	for _, v := range []int{1<<32 | 1, -1<<32 | 1, math.MinInt64 | 1} {
		if d.HasEdge(0, v) {
			t.Fatalf("HasEdge(0, %#x) = true", v)
		}
	}
	if err := d.InsertEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if d.Degree(0) != 2 {
		t.Fatalf("degree(0) = %d", d.Degree(0))
	}
	former, err := d.RemoveNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(former) != 2 || former[0] != 0 || former[1] != 2 {
		t.Fatalf("former neighbors = %v", former)
	}
	if d.Alive(1) || d.AliveCount() != 3 || d.M() != 2 {
		t.Fatalf("post-removal state: alive=%d m=%d", d.AliveCount(), d.M())
	}
	if err := d.InsertEdge(0, 1); err == nil {
		t.Fatal("edge to dead vertex accepted")
	}
	snap, orig := d.Snapshot()
	if snap.N() != 3 || snap.M() != 2 {
		t.Fatalf("snapshot n=%d m=%d", snap.N(), snap.M())
	}
	if orig[0] != 0 || orig[1] != 2 || orig[2] != 3 {
		t.Fatalf("snapshot mapping = %v", orig)
	}
}

// TestDGraphMatchesSets checks the DGraph's arena against plain adjacency
// sets over 20,000 random updates on a 64-vertex path: rows grow past
// their blocks and move, removed rows leave their blocks behind, and the
// arena fills and is compacted many times, yet after every update each
// row must hold exactly its neighbors, ascending, and M and AliveCount
// must agree.
func TestDGraphMatchesSets(t *testing.T) {
	d := dynmis.NewDGraph(path(64))
	ref := make([]map[int]bool, 64)
	for v := range ref {
		ref[v] = map[int]bool{}
		if v > 0 {
			ref[v][v-1], ref[v-1][v] = true, true
		}
	}
	alive, m := 64, 63
	r := rng.New(9)
	for step := 0; step < 20000; step++ {
		u, v := r.Intn(len(ref)), r.Intn(len(ref))
		switch op := r.Intn(10); {
		case op < 5 && d.Alive(u) && d.Alive(v) && u != v && !ref[u][v]:
			if err := d.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
			ref[u][v], ref[v][u] = true, true
			m++
		case op < 8 && ref[u][v]:
			if err := d.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
			delete(ref[u], v)
			delete(ref[v], u)
			m--
		case op == 8 && d.Alive(u):
			if _, err := d.RemoveNode(u); err != nil {
				t.Fatal(err)
			}
			for w := range ref[u] {
				delete(ref[w], u)
			}
			m -= len(ref[u])
			ref[u] = map[int]bool{}
			alive--
		case op == 9:
			d.InsertNode()
			ref = append(ref, map[int]bool{})
			alive++
		}
		if d.M() != m || d.AliveCount() != alive {
			t.Fatalf("step %d: M %d alive %d, want %d and %d", step, d.M(), d.AliveCount(), m, alive)
		}
		for x := range ref {
			row := d.Neighbors(x)
			if len(row) != len(ref[x]) || !slices.IsSorted(row) {
				t.Fatalf("step %d: vertex %d row %v, want the %d neighbors %v ascending", step, x, row, len(ref[x]), ref[x])
			}
			for _, w := range row {
				if !ref[x][int(w)] {
					t.Fatalf("step %d: vertex %d row %v holds %d, not a neighbor", step, x, row, w)
				}
			}
		}
	}
}
