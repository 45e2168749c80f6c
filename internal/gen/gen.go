// Package gen provides the graph generators used by the experiments: the
// bounded-arboricity families the paper targets (trees, forests,
// union-of-forests, planar grids, k-trees, geometric graphs) plus the dense
// baselines (G(n,p), preferential attachment) used to show where the
// shattering algorithm's poly(α) cost stops paying off.
//
// Every generator is deterministic given an *rng.RNG and returns a simple
// graph; arboricity-sensitive generators document the bound they guarantee.
package gen

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Path returns the path graph on n vertices (arboricity 1).
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, maxInt(0, n-1))
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	return graph.MustNew(n, edges)
}

// Cycle returns the cycle graph on n >= 3 vertices (arboricity 2, barely).
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic("gen: cycle needs n >= 3")
	}
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % n})
	}
	return graph.MustNew(n, edges)
}

// Star returns the star K_{1,n-1}: vertex 0 adjacent to all others
// (arboricity 1, maximum degree n-1). Stars stress the ρ_k opt-out: the
// center is a high-degree parent of every leaf.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, maxInt(0, n-1))
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i})
	}
	return graph.MustNew(n, edges)
}

// CompleteBinaryTree returns the complete binary tree on n vertices with
// the standard heap numbering (arboricity 1).
func CompleteBinaryTree(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, maxInt(0, n-1))
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i - 1) / 2})
	}
	return graph.MustNew(n, edges)
}

// RandomTree returns a uniformly random labeled tree on n vertices via a
// random Prüfer sequence (arboricity 1). Uniformity over all n^(n-2)
// labeled trees is what makes tree experiments representative of
// "unoriented trees" in the Lenzen-Wattenhofer sense rather than of one
// topology.
func RandomTree(n int, r *rng.RNG) *graph.Graph {
	if n <= 0 {
		return graph.MustNew(maxInt(n, 0), nil)
	}
	if n <= 2 {
		if n == 2 {
			return graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
		}
		return graph.MustNew(n, nil)
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = r.Intn(n)
	}
	return fromPrufer(n, prufer)
}

// fromPrufer decodes a Prüfer sequence into its labeled tree.
func fromPrufer(n int, prufer []int) *graph.Graph {
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range prufer {
		deg[v]++
	}
	// Min-heap-free decoding: maintain the smallest leaf pointer.
	edges := make([]graph.Edge, 0, n-1)
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		edges = append(edges, graph.Edge{U: leaf, V: v})
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	edges = append(edges, graph.Edge{U: leaf, V: n - 1})
	return graph.MustNew(n, edges)
}

// Caterpillar returns a caterpillar tree: a spine of length spine with legs
// legs attached to each spine vertex (arboricity 1). Caterpillars are the
// canonical hard case for naive tree MIS analyses because spine vertices
// share many leaf children.
func Caterpillar(spine, legs int) *graph.Graph {
	if spine <= 0 {
		return graph.MustNew(0, nil)
	}
	n := spine * (1 + legs)
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, graph.Edge{U: i, V: next})
			next++
		}
	}
	return graph.MustNew(n, edges)
}

// UnionOfTrees returns a graph that is the union of alpha independent
// uniformly random spanning trees on the same vertex set. Its arboricity is
// at most alpha by construction (each tree is a forest); duplicate edges
// between trees are merged, so the edge count can be slightly below
// alpha·(n-1). This is the workhorse arboricity-α family for the
// experiments.
func UnionOfTrees(n, alpha int, r *rng.RNG) *graph.Graph {
	if alpha <= 0 {
		panic("gen: UnionOfTrees needs alpha >= 1")
	}
	var edges []graph.Edge
	for t := 0; t < alpha; t++ {
		tree := RandomTree(n, r.Split(uint64(t)))
		edges = append(edges, tree.Edges()...)
	}
	return graph.MustNew(n, edges)
}

// Grid returns the rows×cols grid graph (planar, arboricity 2).
func Grid(rows, cols int) *graph.Graph {
	n := rows * cols
	var edges []graph.Edge
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	return graph.MustNew(n, edges)
}

// KTree returns a random k-tree on n >= k+1 vertices: start from K_{k+1}
// and repeatedly attach a new vertex to a random existing k-clique.
// k-trees have treewidth exactly k and arboricity at most k (they are
// k-degenerate).
func KTree(n, k int, r *rng.RNG) *graph.Graph {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("gen: KTree requires 1 <= k < n, got n=%d k=%d", n, k))
	}
	var edges []graph.Edge
	// cliques holds k-subsets eligible for attachment.
	var cliques [][]int
	base := make([]int, k+1)
	for i := range base {
		base[i] = i
	}
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
		// Each k-subset of the base clique is eligible.
		sub := make([]int, 0, k)
		for j := 0; j <= k; j++ {
			if j != i {
				sub = append(sub, j)
			}
		}
		cliques = append(cliques, sub)
	}
	for v := k + 1; v < n; v++ {
		c := cliques[r.Intn(len(cliques))]
		for _, u := range c {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
		// New eligible cliques: v plus each (k-1)-subset of c.
		for skip := 0; skip < k; skip++ {
			sub := make([]int, 0, k)
			sub = append(sub, v)
			for j, u := range c {
				if j != skip {
					sub = append(sub, u)
				}
			}
			cliques = append(cliques, sub)
		}
	}
	return graph.MustNew(n, edges)
}

// GNP returns an Erdős–Rényi G(n, p) graph. For p well above log(n)/n this
// family has arboricity Θ(np) and is the regime where the paper concedes
// Ghaffari/Luby win.
func GNP(n int, p float64, r *rng.RNG) *graph.Graph {
	var edges []graph.Edge
	if p >= 1 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, graph.Edge{U: i, V: j})
			}
		}
		return graph.MustNew(n, edges)
	}
	if p <= 0 {
		return graph.MustNew(n, nil)
	}
	// Batagelj–Brandes geometric skipping over pairs (j, i) with j < i:
	// O(n + m) expected time instead of O(n²).
	logq := math.Log(1 - p)
	i, j := 1, -1
	for i < n {
		skip := int(math.Floor(math.Log(1-r.Float64()) / logq))
		j += 1 + skip
		for j >= i && i < n {
			j -= i
			i++
		}
		if i < n {
			edges = append(edges, graph.Edge{U: j, V: i})
		}
	}
	return graph.MustNew(n, edges)
}

// RandomGeometric returns a random geometric graph: n points uniform in the
// unit square, edges between pairs at distance <= radius. RGGs model the
// wireless/sensor deployments that motivate distributed MIS (cluster-head
// election); for radius ~ c/√n the expected degree — and hence arboricity —
// is O(c²). It also returns the point coordinates for the sensor example.
func RandomGeometric(n int, radius float64, r *rng.RNG) (*graph.Graph, [][2]float64) {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{r.Float64(), r.Float64()}
	}
	// Grid-bucket the points so neighbor search is O(n) for radius ~ 1/√n.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	bucket := make(map[[2]int][]int)
	cellOf := func(p [2]float64) [2]int {
		cx := int(p[0] * float64(cells))
		cy := int(p[1] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for i, p := range pts {
		c := cellOf(p)
		bucket[c] = append(bucket[c], i)
	}
	r2 := radius * radius
	var edges []graph.Edge
	for i, p := range pts {
		c := cellOf(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := p[0]-pts[j][0], p[1]-pts[j][1]
					if ddx*ddx+ddy*ddy <= r2 {
						edges = append(edges, graph.Edge{U: i, V: j})
					}
				}
			}
		}
	}
	return graph.MustNew(n, edges), pts
}

// PreferentialAttachment returns a Barabási–Albert graph: each new vertex
// attaches m edges to existing vertices chosen proportionally to degree.
// Arboricity is at most m (it is m-degenerate by construction); the degree
// distribution is heavy-tailed, exercising the high-degree opt-out.
func PreferentialAttachment(n, m int, r *rng.RNG) *graph.Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("gen: PreferentialAttachment requires 1 <= m < n, got n=%d m=%d", n, m))
	}
	// The seed star's m edges, then m for each later vertex.
	edges := make([]graph.Edge, 0, m*(n-m))
	// endpoints doubles as the degree-proportional sampling urn.
	endpoints := make([]int, 0, 2*cap(edges))
	// Seed: star on m+1 vertices.
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: i, V: m})
		endpoints = append(endpoints, i, m)
	}
	targets := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		// Draw until m distinct targets. The urn holds only vertices below
		// v, so v never draws itself.
		targets = targets[:0]
		for len(targets) < m {
			if u := endpoints[r.Intn(len(endpoints))]; !slices.Contains(targets, u) {
				targets = append(targets, u)
			}
		}
		slices.Sort(targets)
		for _, u := range targets {
			edges = append(edges, graph.Edge{U: v, V: u})
			endpoints = append(endpoints, v, u)
		}
	}
	return graph.MustNew(n, edges)
}

// RandomForest returns a forest of roughly `trees` uniformly random trees
// partitioning n vertices (arboricity 1, disconnected).
func RandomForest(n, trees int, r *rng.RNG) *graph.Graph {
	if trees < 1 {
		panic("gen: RandomForest needs trees >= 1")
	}
	if trees > n {
		trees = n
	}
	// Split n vertices into `trees` contiguous blocks of near-equal size.
	var edges []graph.Edge
	start := 0
	for t := 0; t < trees; t++ {
		size := n / trees
		if t < n%trees {
			size++
		}
		sub := RandomTree(size, r.Split(uint64(t)))
		for _, e := range sub.Edges() {
			edges = append(edges, graph.Edge{U: e.U + start, V: e.V + start})
		}
		start += size
	}
	return graph.MustNew(n, edges)
}

// FamilyNames lists the families Family builds, as -family flags spell them.
const FamilyNames = "tree|union|grid|gnp|pa|rgg"

// Family builds the named family on n vertices from r: alpha is union's
// tree count and pa's out-degree, p is gnp's edge probability and rgg's
// radius, and grid is the smallest square of at least n cells. It refuses
// what a generator would panic on or silently clamp, naming the parameter.
func Family(name string, n, alpha int, p float64, r *rng.RNG) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("n must be at least 1, got %d", n)
	}
	switch name {
	case "tree":
		return RandomTree(n, r), nil
	case "union":
		if alpha < 1 {
			return nil, fmt.Errorf("alpha must be at least 1 for union, got %d", alpha)
		}
		return UnionOfTrees(n, alpha, r), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side), nil
	case "gnp":
		if !(p >= 0 && p <= 1) { // NaN fails both
			return nil, fmt.Errorf("p must be a probability in [0, 1] for gnp, got %v", p)
		}
		return GNP(n, p, r), nil
	case "pa":
		if alpha < 1 || alpha >= n {
			return nil, fmt.Errorf("alpha must be in [1, n) for pa, got alpha=%d with n=%d", alpha, n)
		}
		return PreferentialAttachment(n, alpha, r), nil
	case "rgg":
		if !(p >= 0) {
			return nil, fmt.Errorf("p (the radius) must be non-negative for rgg, got %v", p)
		}
		g, _ := RandomGeometric(n, p, r)
		return g, nil
	}
	return nil, fmt.Errorf("unknown family %q (want %s)", name, FamilyNames)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
