package faultsim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestBernoulliDropExtremes(t *testing.T) {
	r := rng.New(1)
	never := BernoulliDrop{P: 0}
	always := BernoulliDrop{P: 1}
	for i := 0; i < 100; i++ {
		if never.Message(i, 0, 1, r).Drop {
			t.Fatal("P=0 dropped a message")
		}
		if !always.Message(i, 0, 1, r).Drop {
			t.Fatal("P=1 delivered a message")
		}
	}
	if never.Vertex(5, 3) != VertexUp {
		t.Fatal("message-only plan crashed a vertex")
	}
}

func TestBernoulliDropDeterministic(t *testing.T) {
	drop := BernoulliDrop{P: 0.5}
	var a, b []bool
	for _, out := range []*[]bool{&a, &b} {
		r := rng.New(42)
		for i := 0; i < 200; i++ {
			*out = append(*out, drop.Message(i, i, i+1, r).Drop)
		}
	}
	some := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical streams", i)
		}
		some = some || a[i]
	}
	if !some {
		t.Fatal("P=0.5 never dropped in 200 draws")
	}
}

func TestLinkBurstWindowAndDirection(t *testing.T) {
	b := NewLinkBurst([]Link{{From: 1, To: 2}}, 3, 5)
	r := rng.New(1)
	cases := []struct {
		round, from, to int
		drop            bool
	}{
		{2, 1, 2, false}, // before the window
		{3, 1, 2, true},  // window start
		{5, 1, 2, true},  // window end (inclusive)
		{6, 1, 2, false}, // after the window
		{4, 2, 1, false}, // reverse direction unaffected
		{4, 1, 3, false}, // other link unaffected
	}
	for _, c := range cases {
		if got := b.Message(c.round, c.from, c.to, r).Drop; got != c.drop {
			t.Errorf("round %d %d->%d: drop=%v, want %v", c.round, c.from, c.to, got, c.drop)
		}
	}
}

func TestBothWays(t *testing.T) {
	links := BothWays([][2]int{{1, 2}, {3, 4}})
	if len(links) != 4 {
		t.Fatalf("got %d links, want 4", len(links))
	}
	set := map[Link]bool{}
	for _, l := range links {
		set[l] = true
	}
	for _, want := range []Link{{1, 2}, {2, 1}, {3, 4}, {4, 3}} {
		if !set[want] {
			t.Fatalf("missing link %v", want)
		}
	}
}

func TestPartitionCutsCrossTraffic(t *testing.T) {
	side := []bool{false, false, true, true}
	p := NewPartition(side, 2, 4)
	r := rng.New(1)
	if !p.Message(3, 0, 2, r).Drop || !p.Message(3, 3, 1, r).Drop {
		t.Fatal("cross-side message survived the partition window")
	}
	if p.Message(3, 0, 1, r).Drop || p.Message(3, 2, 3, r).Drop {
		t.Fatal("same-side message dropped")
	}
	if p.Message(5, 0, 2, r).Drop {
		t.Fatal("cross-side message dropped outside the window")
	}
}

func TestCrashStopFates(t *testing.T) {
	c := NewCrashStop(map[int]int{7: 4})
	if c.Vertex(3, 7) != VertexUp {
		t.Fatal("vertex down before its crash round")
	}
	for _, round := range []int{4, 5, 1000} {
		if c.Vertex(round, 7) != VertexGone {
			t.Fatalf("round %d: crash-stopped vertex not gone", round)
		}
	}
	if c.Vertex(100, 8) != VertexUp {
		t.Fatal("untouched vertex crashed")
	}
	if f := c.Message(4, 1, 2, rng.New(1)); f.Drop || f.Delay != 0 {
		t.Fatal("vertex-only plan touched a message")
	}
}

func TestCrashRestartWindow(t *testing.T) {
	c := NewCrashRestart(map[int]Window{
		1: {Down: 3, Up: 6},
		2: {Down: 2, Up: 0}, // never rejoins
	})
	if c.Vertex(2, 1) != VertexUp || c.Vertex(6, 1) != VertexUp {
		t.Fatal("vertex 1 down outside its window")
	}
	for round := 3; round < 6; round++ {
		if c.Vertex(round, 1) != VertexDown {
			t.Fatalf("round %d: vertex 1 not down", round)
		}
	}
	if c.Vertex(2, 2) != VertexGone {
		t.Fatal("open-ended window is not gone")
	}
}

func TestDelayK(t *testing.T) {
	r := rng.New(1)
	if f := (DelayK{K: 3}).Message(1, 0, 1, r); f.Drop || f.Delay != 3 {
		t.Fatalf("got %+v, want delay 3", f)
	}
	if f := (DelayK{K: 0}).Message(1, 0, 1, r); f.Delay != 0 {
		t.Fatal("K=0 delayed a message")
	}
}

func TestComposeSemantics(t *testing.T) {
	r := rng.New(1)
	p := Compose(
		DelayK{K: 2},
		NewLinkBurst([]Link{{From: 0, To: 1}}, 1, 10),
		DelayK{K: 5},
	)
	if !p.Message(4, 0, 1, r).Drop {
		t.Fatal("composed plan lost the burst layer's drop")
	}
	if f := p.Message(4, 1, 0, r); f.Drop || f.Delay != 5 {
		t.Fatalf("got %+v, want max delay 5", f)
	}

	v := Compose(
		NewCrashRestart(map[int]Window{1: {Down: 2, Up: 9}}),
		NewCrashStop(map[int]int{1: 5}),
	)
	if v.Vertex(3, 1) != VertexDown {
		t.Fatal("want down from the restart layer")
	}
	if v.Vertex(6, 1) != VertexGone {
		t.Fatal("want gone once the crash-stop layer fires")
	}
	if v.Vertex(1, 1) != VertexUp {
		t.Fatal("want up before either layer fires")
	}

	if single := Compose(DelayK{K: 1}); single.Message(0, 0, 0, r).Delay != 1 {
		t.Fatal("single-plan compose must behave as the plan itself")
	}
}

func TestVertexFateString(t *testing.T) {
	for fate, want := range map[VertexFate]string{
		VertexUp: "up", VertexDown: "down", VertexGone: "gone", VertexFate(9): "vertexfate(9)",
	} {
		if fate.String() != want {
			t.Errorf("%d: got %q, want %q", int(fate), fate.String(), want)
		}
	}
}

func TestCrashedAt(t *testing.T) {
	plan := NewCrashRestart(map[int]Window{0: {Down: 2, Up: 4}, 3: {Down: 1, Up: 0}})
	crashed := CrashedAt(plan, 3, 4)
	want := []bool{true, false, false, true}
	for v := range want {
		if crashed[v] != want[v] {
			t.Fatalf("round 3 vertex %d: crashed=%v, want %v", v, crashed[v], want[v])
		}
	}
	for _, c := range CrashedAt(nil, 3, 4) {
		if c {
			t.Fatal("nil plan crashed a vertex")
		}
	}
}

func TestSpreadCrashes(t *testing.T) {
	crashes := SpreadCrashes(100, 10, 2, 4)
	if len(crashes) != 10 {
		t.Fatalf("got %d victims, want 10", len(crashes))
	}
	for v, r := range crashes {
		if v < 0 || v >= 100 {
			t.Fatalf("victim %d out of range", v)
		}
		if r < 2 || r >= 6 {
			t.Fatalf("victim %d crashes at round %d, want [2,6)", v, r)
		}
	}
	if len(SpreadCrashes(10, 0, 1, 1)) != 0 || len(SpreadCrashes(0, 5, 1, 1)) != 0 {
		t.Fatal("degenerate schedules must be empty")
	}
	if got := len(SpreadCrashes(4, 9, 1, 1)); got != 4 {
		t.Fatalf("count clamped to n: got %d victims, want 4", got)
	}
}

// path5 builds the path 0-1-2-3-4.
func path5(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.New(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckSafeAndCovered(t *testing.T) {
	g := path5(t)
	rep, err := Check(g, []bool{true, false, false, true, false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || rep.InMIS != 2 || rep.Covered != 5 || rep.Undecided != 0 {
		t.Fatalf("unexpected report: %s", rep)
	}
	if rep.Coverage() != 1 {
		t.Fatalf("coverage %v, want 1", rep.Coverage())
	}
}

func TestCheckDetectsIndependenceViolation(t *testing.T) {
	g := path5(t)
	rep, err := Check(g, []bool{false, true, true, false, false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe() {
		t.Fatal("adjacent members not reported")
	}
	if len(rep.Violations) != 1 || rep.Violations[0] != (Link{From: 1, To: 2}) {
		t.Fatalf("violations %v, want [{1 2}]", rep.Violations)
	}
}

func TestCheckCoverageExcludesCrashed(t *testing.T) {
	g := path5(t)
	// Vertex 0 in the set; 2 crashed; 3 and 4 undecided.
	rep, err := Check(g, []bool{true, false, false, false, false},
		[]bool{false, false, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashed != 1 || rep.Covered != 2 || rep.Undecided != 2 {
		t.Fatalf("unexpected report: %s", rep)
	}
	if got, want := rep.Coverage(), 0.5; got != want {
		t.Fatalf("coverage %v, want %v", got, want)
	}
}

func TestCheckAllCrashed(t *testing.T) {
	g := path5(t)
	rep, err := Check(g, make([]bool, 5), []bool{true, true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage() != 1 {
		t.Fatal("an empty obligation must count as full coverage")
	}
}

func TestCheckLengthValidation(t *testing.T) {
	g := path5(t)
	if _, err := Check(g, make([]bool, 3), nil); err == nil {
		t.Fatal("short membership slice accepted")
	}
	if _, err := Check(g, make([]bool, 5), make([]bool, 2)); err == nil {
		t.Fatal("short crash slice accepted")
	}
}
