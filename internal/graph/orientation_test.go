package graph

import (
	"testing"

	"repro/internal/rng"
)

func TestDegeneracyOfForest(t *testing.T) {
	g := path(50)
	_, d := g.DegeneracyOrder()
	if d != 1 {
		t.Fatalf("degeneracy of path = %d, want 1", d)
	}
}

func TestDegeneracyOfCycle(t *testing.T) {
	_, d := cycle(10).DegeneracyOrder()
	if d != 2 {
		t.Fatalf("degeneracy of cycle = %d, want 2", d)
	}
}

func TestDegeneracyOfComplete(t *testing.T) {
	_, d := complete(6).DegeneracyOrder()
	if d != 5 {
		t.Fatalf("degeneracy of K6 = %d, want 5", d)
	}
}

func TestDegeneracyOrderIsPermutation(t *testing.T) {
	r := rng.New(1)
	g := randomGraph(r, 60, 0.1)
	order, _ := g.DegeneracyOrder()
	if len(order) != g.N() {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, g.N())
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d repeated", v)
		}
		seen[v] = true
	}
}

func TestDegeneracyOrderProperty(t *testing.T) {
	// Every vertex must have at most `degeneracy` neighbors later in the
	// order — the defining property used by OrientByDegeneracy.
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 50, 0.1)
		order, d := g.DegeneracyOrder()
		pos := make([]int, g.N())
		for i, v := range order {
			pos[v] = i
		}
		for v := 0; v < g.N(); v++ {
			later := 0
			for _, w := range g.Neighbors(v) {
				if pos[w] > pos[v] {
					later++
				}
			}
			if later > d {
				t.Fatalf("vertex %d has %d later neighbors, degeneracy %d", v, later, d)
			}
		}
	}
}

func TestOrientByDegeneracy(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 40, 0.15)
		o, d := g.OrientByDegeneracy()
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		if o.MaxOutDegree() > d {
			t.Fatalf("out-degree %d exceeds degeneracy %d", o.MaxOutDegree(), d)
		}
	}
}

func TestOrientationParentsChildrenConsistent(t *testing.T) {
	r := rng.New(4)
	g := randomGraph(r, 30, 0.2)
	o, _ := g.OrientByDegeneracy()
	for v := 0; v < g.N(); v++ {
		for _, p := range o.Parents(v) {
			found := false
			for _, c := range o.Children(p) {
				if c == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("%d is parent of %d but %d not child of %d", p, v, v, p)
			}
		}
	}
}

func TestOrientByOrderWrongLength(t *testing.T) {
	g := path(5)
	if _, err := g.OrientByOrder([]int{0, 1}); err == nil {
		t.Fatal("wrong-length position accepted")
	}
}

func TestOrientationDegreeSum(t *testing.T) {
	r := rng.New(5)
	g := randomGraph(r, 35, 0.2)
	o, _ := g.OrientByDegeneracy()
	outSum, inSum := 0, 0
	for v := 0; v < g.N(); v++ {
		outSum += len(o.Parents(v))
		inSum += len(o.Children(v))
	}
	if outSum != g.M() || inSum != g.M() {
		t.Fatalf("out=%d in=%d m=%d", outSum, inSum, g.M())
	}
}

func TestArboricityBoundsTree(t *testing.T) {
	lo, hi := path(100).ArboricityBounds()
	if lo != 1 || hi != 1 {
		t.Fatalf("tree arboricity bounds [%d,%d], want [1,1]", lo, hi)
	}
}

func TestArboricityBoundsComplete(t *testing.T) {
	// K6: arboricity = ceil(15/5) = 3; degeneracy 5.
	lo, hi := complete(6).ArboricityBounds()
	if lo != 3 {
		t.Fatalf("K6 lower bound = %d, want 3", lo)
	}
	if hi < lo {
		t.Fatalf("bounds inverted: [%d,%d]", lo, hi)
	}
}

func TestArboricityBoundsEmpty(t *testing.T) {
	lo, hi := MustNew(5, nil).ArboricityBounds()
	if lo != 0 || hi != 0 {
		t.Fatalf("edgeless bounds [%d,%d]", lo, hi)
	}
}

func TestArboricityBoundsOrdering(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(r, 40, 0.15)
		lo, hi := g.ArboricityBounds()
		if lo > hi {
			t.Fatalf("lower %d > upper %d", lo, hi)
		}
	}
}
