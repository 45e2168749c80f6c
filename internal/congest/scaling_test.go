package congest

import (
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/trace"
)

func TestFrontierWords(t *testing.T) {
	cases := []struct{ lo, hi, want int }{
		{0, 0, 0}, {5, 5, 0}, {7, 3, 0},
		{0, 1, 1}, {0, 64, 1}, {0, 65, 2},
		{63, 64, 1}, {63, 65, 2}, {64, 128, 1},
		{100, 200, 3}, {1, 4096, 64},
	}
	for _, c := range cases {
		if got := frontierWords(c.lo, c.hi); got != c.want {
			t.Errorf("frontierWords(%d, %d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

// frontierSet lists the vertex IDs a shard's frontier has set, in order.
func frontierSet(sh *shard) []int {
	var out []int
	base := sh.lo >> 6
	for wi, w := range sh.frontier {
		vbase := (base + wi) << 6
		for rem := w; rem != 0; {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			out = append(out, vbase+b)
		}
	}
	return out
}

func TestResetFrontierMasksRangeEdges(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{
		{0, 64}, {0, 100}, {10, 70}, {100, 101}, {65, 191}, {0, 1}, {63, 64}, {7, 7},
	} {
		sh := &shard{}
		sh.resetFrontier(c.lo, c.hi)
		if sh.liveCount != c.hi-c.lo {
			t.Fatalf("[%d,%d): liveCount = %d, want %d", c.lo, c.hi, sh.liveCount, c.hi-c.lo)
		}
		got := frontierSet(sh)
		if len(got) != c.hi-c.lo {
			t.Fatalf("[%d,%d): %d bits set, want %d", c.lo, c.hi, len(got), c.hi-c.lo)
		}
		for i, v := range got {
			if v != c.lo+i {
				t.Fatalf("[%d,%d): bit %d is vertex %d, want %d", c.lo, c.hi, i, v, c.lo+i)
			}
		}
	}
}

func TestLoadFrontierCopiesAndMasks(t *testing.T) {
	// Global bitset over 256 vertices with every third vertex live.
	global := make([]uint64, 4)
	want := map[int]bool{}
	for v := 0; v < 256; v += 3 {
		global[v>>6] |= 1 << uint(v&63)
		want[v] = true
	}
	for _, c := range []struct{ lo, hi int }{
		{0, 256}, {0, 64}, {64, 128}, {30, 200}, {100, 101}, {90, 90},
	} {
		sh := &shard{}
		sh.loadFrontier(c.lo, c.hi, global)
		got := frontierSet(sh)
		count := 0
		for v := c.lo; v < c.hi; v++ {
			if want[v] {
				if count >= len(got) || got[count] != v {
					t.Fatalf("[%d,%d): missing or misplaced vertex %d in %v", c.lo, c.hi, v, got)
				}
				count++
			}
		}
		if count != len(got) || sh.liveCount != count {
			t.Fatalf("[%d,%d): %d bits, liveCount %d, want %d", c.lo, c.hi, len(got), sh.liveCount, count)
		}
	}
}

func TestWorkerCountEdgeCases(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name    string
		workers int
		n       int
		want    int
	}{
		{"zero-vertices-default", 0, 0, 1},
		{"zero-vertices-explicit", 8, 0, 1},
		{"negative-workers-small-n", -5, 1, 1},
		{"workers-exceed-n", 100, 3, 3},
		{"workers-within-n", 3, 10, 3},
		{"default-clamped-to-n", 0, 1, 1},
	}
	for _, c := range cases {
		if got := (Options{Workers: c.workers}).WorkerCount(c.n); got != c.want {
			t.Errorf("%s: WorkerCount(%d) with Workers=%d = %d, want %d",
				c.name, c.n, c.workers, got, c.want)
		}
	}
	// The default resolves to GOMAXPROCS before the n clamp.
	if got := (Options{}).WorkerCount(1 << 20); got != maxprocs {
		t.Errorf("default WorkerCount(large n) = %d, want GOMAXPROCS = %d", got, maxprocs)
	}
	// Zero-vertex runs still execute under every driver (the returned 1 is
	// nominal: runPool short-circuits before starting workers).
	r := NewRunner(ringGraph(3), haltFactory, Options{Seed: 1, Driver: DriverPool, Workers: -3})
	if _, err := r.Run(); err != nil {
		t.Fatalf("negative Workers run failed: %v", err)
	}
}

// skewHalter drives a deliberately skewed shattering shape: vertices at or
// above cut halt in round haltAt, the rest keep broadcasting until round
// last. With cut at n/8, three of four equal-width shards drain at once
// and the survivors concentrate in shard 0 — the layout rebalancing exists
// to fix.
type skewHalter struct {
	cut, haltAt, last int
}

func (s *skewHalter) Init(ctx *Context) { ctx.Broadcast(rawWire(8)) }

func (s *skewHalter) Round(ctx *Context, _ []Message) {
	if ctx.Round() >= s.haltAt && ctx.ID() >= s.cut {
		ctx.Halt()
		return
	}
	if ctx.Round() >= s.last {
		ctx.Halt()
		return
	}
	ctx.Broadcast(rawWire(8))
}

// TestRebalanceTriggersAndPreservesDeterminism runs the skewed workload on
// the pool driver and requires that rebalancing actually fired and that
// the deterministic event fingerprint, Result, and round count are
// identical to the sequential driver's.
func TestRebalanceTriggersAndPreservesDeterminism(t *testing.T) {
	const n = 4096
	g := ringGraph(n)
	factory := func(int) Node { return &skewHalter{cut: n / 8, haltAt: 2, last: 12} }

	run := func(opts Options) (Result, uint64, int64) {
		rec := trace.NewRecorder(0)
		rebalances := int64(0)
		opts.Seed = 7
		opts.Events = countingSink{rec: rec, rebalances: &rebalances}
		r := NewRunner(g, factory, opts)
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Fingerprint(), rebalances
	}

	seqRes, seqFP, seqReb := run(Options{Driver: DriverSequential})
	if seqReb != 0 {
		t.Fatalf("sequential driver rebalanced %d times, want 0", seqReb)
	}
	poolRes, poolFP, poolReb := run(Options{Driver: DriverPool, Workers: 4})
	if poolReb == 0 {
		t.Fatal("pool driver never rebalanced on a skewed workload")
	}
	if poolRes != seqRes {
		t.Fatalf("Results diverge: seq %+v, pool %+v", seqRes, poolRes)
	}
	if poolFP != seqFP {
		t.Fatalf("fingerprints diverge: seq %#x, pool %#x", seqFP, poolFP)
	}
}

// countingSink forwards to a recorder and counts rebalance events.
type countingSink struct {
	rec        *trace.Recorder
	rebalances *int64
}

func (s countingSink) Emit(e trace.Event) {
	if e.Type == trace.EvRebalance {
		*s.rebalances++
	}
	s.rec.Emit(e)
}

// TestRebalancePartitionInvariants drives the rebalancer directly: after
// any rebalance the shard ranges must partition [0, n) contiguously, every
// shard's liveCount must equal its frontier popcount, and the total must
// be conserved.
func TestRebalancePartitionInvariants(t *testing.T) {
	const n = 2048
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed: 1, Driver: DriverPool,
	})
	st := r.newExecState(4)
	// Manufacture heavy skew: clear every bit outside [0, n/8).
	for _, sh := range st.shards {
		for v := n / 8; v < n; v++ {
			if v >= sh.lo && v < sh.hi {
				wi := v>>6 - sh.lo>>6
				if sh.frontier[wi]&(1<<uint(v&63)) != 0 {
					sh.frontier[wi] &^= 1 << uint(v&63)
					sh.liveCount--
				}
			}
		}
	}
	st.maybeRebalance(1)
	if st.rebalances != 1 {
		t.Fatalf("rebalances = %d, want 1", st.rebalances)
	}
	lo := 0
	total := 0
	for s, sh := range st.shards {
		if sh.lo != lo {
			t.Fatalf("shard %d starts at %d, want %d (ranges must be contiguous)", s, sh.lo, lo)
		}
		if sh.hi < sh.lo {
			t.Fatalf("shard %d range [%d, %d) inverted", s, sh.lo, sh.hi)
		}
		count := 0
		for _, w := range sh.frontier {
			count += bits.OnesCount64(w)
		}
		if count != sh.liveCount {
			t.Fatalf("shard %d liveCount %d != popcount %d", s, sh.liveCount, count)
		}
		total += count
		lo = sh.hi
	}
	if lo != n {
		t.Fatalf("shard ranges end at %d, want %d", lo, n)
	}
	if total != n/8 {
		t.Fatalf("live total %d after rebalance, want %d", total, n/8)
	}
	// The load must actually be spread: no shard may hold more than half
	// the surviving frontier (before, shard 0 held all of it).
	for s, sh := range st.shards {
		if sh.liveCount > total/2 {
			t.Fatalf("shard %d still holds %d of %d live vertices", s, sh.liveCount, total)
		}
	}
}

// TestRebalanceBelowThresholdIsNoop pins the trigger's guard rails: too
// little total work, or a balanced histogram, must leave the layout alone.
func TestRebalanceBelowThresholdIsNoop(t *testing.T) {
	const n = 128 // 4 shards × 32 vertices < rebalanceMinPerShard each
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed: 1, Driver: DriverPool,
	})
	st := r.newExecState(4)
	st.maybeRebalance(1)
	if st.rebalances != 0 {
		t.Fatalf("rebalanced with %d vertices across 4 shards (floor is %d/shard)", n, rebalanceMinPerShard)
	}
	// Plenty of work but perfectly balanced: still a no-op.
	r2 := NewRunner(ringGraph(1024), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed: 1, Driver: DriverPool,
	})
	st2 := r2.newExecState(4)
	st2.maybeRebalance(1)
	if st2.rebalances != 0 {
		t.Fatal("rebalanced a perfectly balanced layout")
	}
}
