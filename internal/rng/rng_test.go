package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for seeds 1 and 2 collided %d/1000 times", same)
	}
}

func TestSplitIsPure(t *testing.T) {
	r := New(7)
	before := r.state
	c1 := r.Split(3)
	c2 := r.Split(3)
	if r.state != before {
		t.Fatal("Split advanced the parent state")
	}
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("two splits with the same label disagree")
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	r := New(7)
	seen := map[uint64]uint64{}
	for label := uint64(0); label < 500; label++ {
		v := r.Split(label).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("labels %d and %d produced the same first draw", prev, label)
		}
		seen[v] = label
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d: %d draws, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolClamps(t *testing.T) {
	r := New(4)
	for i := 0; i < 100; i++ {
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bool(%v) frequency %v", p, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	if err := quick.Check(func(seed uint64) bool {
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	if r.Uint64() == r.Uint64() {
		t.Fatal("zero-value RNG is not advancing")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkSplit(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Split(uint64(i))
	}
}
