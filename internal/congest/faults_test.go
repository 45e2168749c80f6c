package congest

// Engine-level fault-injection tests: the faultsim.Plan hooks as seen from
// the runner — crash skips, retirement, delayed delivery and
// receiver-crash loss. Cross-driver bit-identity of faulted runs is
// covered separately by crossdriver_test.go.

import (
	"testing"

	"repro/internal/faultsim"
	"repro/internal/graph"
)

// recorder logs the round of every received message and runs until told
// to stop, so tests can observe delivery timing under faults.
type recorder struct {
	stopAt   int
	execs    []int // rounds in which Round ran
	arrivals []int // rounds in which messages arrived (one entry per message)
}

func (r *recorder) Init(ctx *Context) {
	ctx.Broadcast(rawWire(8))
}

func (r *recorder) Round(ctx *Context, inbox []Message) {
	r.execs = append(r.execs, ctx.Round())
	for range inbox {
		r.arrivals = append(r.arrivals, ctx.Round())
	}
	if ctx.Round() >= r.stopAt {
		ctx.Halt()
		return
	}
	ctx.Broadcast(rawWire(8))
}

func pair(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
}

func TestCrashRestartSkipsRounds(t *testing.T) {
	g := pair(t)
	r := NewRunner(g, func(int) Node { return &recorder{stopAt: 6} }, Options{
		Seed:   1,
		Faults: faultsim.NewCrashRestart(map[int]faultsim.Window{1: {Down: 2, Up: 4}}),
	})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got := r.Node(1).(*recorder).execs
	want := []int{1, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("vertex 1 executed rounds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex 1 executed rounds %v, want %v", got, want)
		}
	}
}

func TestCrashStopRetiresVertex(t *testing.T) {
	g := pair(t)
	r := NewRunner(g, func(int) Node { return &recorder{stopAt: 5} }, Options{
		Seed:   1,
		Faults: faultsim.NewCrashStop(map[int]int{1: 3}),
	})
	res, err := r.Run()
	if err != nil {
		t.Fatalf("run with a permanently crashed vertex must still terminate: %v", err)
	}
	execs := r.Node(1).(*recorder).execs
	if len(execs) == 0 || execs[len(execs)-1] != 2 {
		t.Fatalf("vertex 1 executed rounds %v, want none after round 2", execs)
	}
	if res.Dropped == 0 {
		t.Fatal("messages to the dead vertex were not counted as dropped")
	}
}

func TestDelayKDefersDelivery(t *testing.T) {
	g := pair(t)
	r := NewRunner(g, func(int) Node { return &recorder{stopAt: 8} }, Options{
		Seed:   1,
		Faults: faultsim.DelayK{K: 2},
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	arrivals := r.Node(0).(*recorder).arrivals
	if len(arrivals) == 0 || arrivals[0] != 3 {
		t.Fatalf("first arrival at rounds %v, want round 3 (sent in Init, delayed 2)", arrivals)
	}
	if res.Delayed == 0 {
		t.Fatal("Result.Delayed not counted")
	}
	// Both nodes stop at round 8: sends from the last rounds (consumed at
	// 10 and 11) die in flight, so delivered stays below deferred.
	if res.Messages >= res.Delayed {
		t.Fatalf("messages=%d delayed=%d: in-flight tail should make delivered < delayed", res.Messages, res.Delayed)
	}
}

func TestObserverCountsSendsOnceUnderDelay(t *testing.T) {
	g := pair(t)
	var sends int64
	r := NewRunner(g, func(int) Node { return &recorder{stopAt: 5} }, Options{
		Seed:   1,
		Faults: faultsim.DelayK{K: 1},
		Events: roundEnds(func(_, _ int, sent int64) { sends += sent }),
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every broadcast is 1 message on a pair graph; each node sends in
	// Init plus rounds 1..4 (round 5 halts after its sends... stopAt halts
	// at round 5 before broadcasting). Total = 2 nodes × 5 sends.
	if sends != 10 {
		t.Fatalf("observer saw %d sends, want 10", sends)
	}
	if res.Delayed != 10 {
		t.Fatalf("delayed = %d, want 10", res.Delayed)
	}
}

func TestInitRunsEvenWhenCrashedAtRoundOne(t *testing.T) {
	g := pair(t)
	r := NewRunner(g, func(int) Node { return &recorder{stopAt: 2} }, Options{
		Seed:   1,
		Faults: faultsim.NewCrashStop(map[int]int{0: 1}),
	})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Vertex 0 never executes a round, but its Init broadcast happened.
	if execs := r.Node(0).(*recorder).execs; len(execs) != 0 {
		t.Fatalf("crashed-at-1 vertex executed rounds %v", execs)
	}
	if arr := r.Node(1).(*recorder).arrivals; len(arr) == 0 || arr[0] != 1 {
		t.Fatalf("vertex 1 arrivals %v, want the Init message in round 1", arr)
	}
}
