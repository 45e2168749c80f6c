package congest

import (
	"math/bits"
	"runtime"
	"testing"
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
