package dynmis

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// StreamConfig shapes a synthetic update stream for the dynamic-MIS
// engine. The zero value is invalid; Batches and BatchSize are required.
type StreamConfig struct {
	// Batches is the number of update batches to generate; BatchSize is
	// the target number of updates per batch (a batch may run slightly
	// over when a node insertion attaches edges).
	Batches, BatchSize int
	// Locality in [0,1] is the probability that an update targets a
	// recently-touched vertex instead of a uniformly random one. High
	// locality hammers one neighborhood (repair regions overlap batch to
	// batch); zero locality sprays updates across the graph — the regime
	// where incremental repair beats full recomputation by the widest
	// margin, and the one TestGoldenStreamFingerprint's work bar measures.
	Locality float64
	// Churn in [0,1] is the probability that an update is node churn
	// (insert or remove a vertex) rather than an edge flip.
	Churn float64
	// InsertBias in [0,1] is the probability that an edge update is an
	// insertion rather than a removal; 0 means the default 0.5. Biasing
	// above 0.5 densifies the graph over the stream, below 0.5 thins it.
	InsertBias float64
	// Attach is the number of edges wired to a freshly churned-in node
	// (0 means the default 2). Attachment targets follow Locality.
	Attach int
}

// streamRecentSize is the capacity of the recently-touched ring the
// Locality knob draws from.
const streamRecentSize = 32

// streamSampleRetries bounds rejection sampling (absent edge, live local
// vertex, ...) before falling back to a different update kind; generation
// must terminate even on pathological graphs (complete, empty).
const streamSampleRetries = 20

// UpdateStream generates a seeded replayable update stream against base
// graph g: Batches batches of ~BatchSize mixed insert/delete updates, every
// one valid at its point in the stream (the generator maintains a DGraph
// mirror and only emits updates the mirror accepts). Determinism: the
// output is a pure function of (g, cfg, r's seed).
func UpdateStream(g *graph.Graph, cfg StreamConfig, r *rng.RNG) ([]Batch, error) {
	if cfg.Batches <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("dynmis: stream needs positive batches (%d) and batch size (%d)", cfg.Batches, cfg.BatchSize)
	}
	if cfg.Locality < 0 || cfg.Locality > 1 {
		return nil, fmt.Errorf("dynmis: stream locality %v outside [0,1]", cfg.Locality)
	}
	if cfg.Churn < 0 || cfg.Churn > 1 {
		return nil, fmt.Errorf("dynmis: stream churn %v outside [0,1]", cfg.Churn)
	}
	if cfg.InsertBias < 0 || cfg.InsertBias > 1 {
		return nil, fmt.Errorf("dynmis: stream insert bias %v outside [0,1]", cfg.InsertBias)
	}
	if cfg.Attach < 0 {
		return nil, fmt.Errorf("dynmis: stream attach %d negative", cfg.Attach)
	}
	insertBias := cfg.InsertBias
	if insertBias == 0 {
		insertBias = 0.5
	}
	attach := cfg.Attach
	if attach == 0 {
		attach = 2
	}

	s := &streamState{d: NewDGraph(g), edgeIdx: make(map[uint64]int)}
	s.pos = make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		s.pos[v] = len(s.alive)
		s.alive = append(s.alive, v)
		for _, x := range g.Neighbors(v) {
			if w := int(x); v < w {
				s.edgeIdx[edgeKey(v, w)] = len(s.edges)
				s.edges = append(s.edges, [2]int{v, w})
			}
		}
	}

	batches := make([]Batch, cfg.Batches)
	for bi := range batches {
		b := make(Batch, 0, cfg.BatchSize)
		for len(b) < cfg.BatchSize {
			switch {
			case r.Float64() < cfg.Churn:
				b = s.churn(b, r, cfg.Locality, attach)
			case r.Float64() < insertBias:
				b = s.edgeInsert(b, r, cfg.Locality)
			default:
				b = s.edgeRemove(b, r, cfg.Locality)
			}
		}
		batches[bi] = b
	}
	return batches, nil
}

// streamState is the generator's mirror of the evolving graph: a DGraph
// plus O(1)-sampling side structures (live-vertex list, edge list with a
// packed-key position index — lookups and deletes only, never ranged) and
// the recently-touched ring the Locality knob draws from.
type streamState struct {
	d       *DGraph
	alive   []int // live vertex IDs, swap-removed
	pos     []int // vertex -> index in alive (-1 when dead)
	edges   [][2]int
	edgeIdx map[uint64]int // edgeKey -> index in edges
	recent  [streamRecentSize]int
	nRecent int
	next    int
}

// edgeKey packs an undirected edge into one map key.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// touch records v in the recently-touched ring.
func (s *streamState) touch(v int) {
	s.recent[s.next] = v
	s.next = (s.next + 1) % streamRecentSize
	if s.nRecent < streamRecentSize {
		s.nRecent++
	}
}

// pickVertex samples a live vertex: from the recent ring with probability
// locality (falling back to uniform when the sampled entry died), else
// uniformly from the live set. Returns -1 when no vertex is live.
func (s *streamState) pickVertex(r *rng.RNG, locality float64) int {
	if len(s.alive) == 0 {
		return -1
	}
	if s.nRecent > 0 && r.Float64() < locality {
		for try := 0; try < streamSampleRetries; try++ {
			v := s.recent[r.Intn(s.nRecent)]
			if s.d.Alive(v) {
				return v
			}
		}
	}
	return s.alive[r.Intn(len(s.alive))]
}

// addEdge mirrors an edge insertion into the side structures.
func (s *streamState) addEdge(u, v int) {
	s.edgeIdx[edgeKey(u, v)] = len(s.edges)
	if u > v {
		u, v = v, u
	}
	s.edges = append(s.edges, [2]int{u, v})
}

// dropEdge mirrors an edge removal: swap-remove from the edge list, fix
// the moved edge's index.
func (s *streamState) dropEdge(u, v int) {
	k := edgeKey(u, v)
	i := s.edgeIdx[k]
	last := len(s.edges) - 1
	if i != last {
		moved := s.edges[last]
		s.edges[i] = moved
		s.edgeIdx[edgeKey(moved[0], moved[1])] = i
	}
	s.edges = s.edges[:last]
	delete(s.edgeIdx, k)
}

// edgeInsert emits one valid edge insertion, falling back to a removal
// (dense neighborhood) or node churn (fewer than two live vertices).
func (s *streamState) edgeInsert(b Batch, r *rng.RNG, locality float64) Batch {
	if len(s.alive) >= 2 {
		for try := 0; try < streamSampleRetries; try++ {
			u := s.pickVertex(r, locality)
			v := s.alive[r.Intn(len(s.alive))]
			if u == v || s.d.HasEdge(u, v) {
				continue
			}
			if err := s.d.InsertEdge(u, v); err != nil {
				panic(fmt.Sprintf("dynmis: stream mirror insert (%d,%d): %v", u, v, err))
			}
			s.addEdge(u, v)
			s.touch(u)
			s.touch(v)
			return append(b, InsertEdge(u, v))
		}
	}
	if len(s.edges) > 0 {
		return s.edgeRemove(b, r, locality)
	}
	return s.nodeInsert(b, r, locality, 0)
}

// edgeRemove emits one valid edge removal, preferring an edge incident to
// a local vertex, falling back to an insertion when the graph is empty.
func (s *streamState) edgeRemove(b Batch, r *rng.RNG, locality float64) Batch {
	if len(s.edges) == 0 {
		return s.edgeInsert(b, r, locality)
	}
	var u, v int
	picked := false
	if r.Float64() < locality {
		for try := 0; try < streamSampleRetries; try++ {
			c := s.pickVertex(r, locality)
			if c < 0 || s.d.Degree(c) == 0 {
				continue
			}
			u, v = c, int(s.d.Neighbors(c)[r.Intn(s.d.Degree(c))])
			picked = true
			break
		}
	}
	if !picked {
		e := s.edges[r.Intn(len(s.edges))]
		u, v = e[0], e[1]
	}
	if err := s.d.RemoveEdge(u, v); err != nil {
		panic(fmt.Sprintf("dynmis: stream mirror remove (%d,%d): %v", u, v, err))
	}
	s.dropEdge(u, v)
	s.touch(u)
	s.touch(v)
	return append(b, RemoveEdge(u, v))
}

// churn emits node churn: insert (wired with attach edges) or remove with
// equal probability, never removing below two live vertices.
func (s *streamState) churn(b Batch, r *rng.RNG, locality float64, attach int) Batch {
	if len(s.alive) > 2 && r.Bool(0.5) {
		return s.nodeRemove(b, r, locality)
	}
	return s.nodeInsert(b, r, locality, attach)
}

// nodeInsert emits a node insertion plus up to attach edge insertions
// wiring the newcomer in.
func (s *streamState) nodeInsert(b Batch, r *rng.RNG, locality float64, attach int) Batch {
	id := s.d.InsertNode()
	s.pos = append(s.pos, len(s.alive))
	s.alive = append(s.alive, id)
	s.touch(id)
	b = append(b, InsertNode(id))
	for i := 0; i < attach && len(s.alive) >= 2; i++ {
		w := -1
		for try := 0; try < streamSampleRetries; try++ {
			c := s.pickVertex(r, locality)
			if c != id && !s.d.HasEdge(id, c) {
				w = c
				break
			}
		}
		if w < 0 {
			break
		}
		if err := s.d.InsertEdge(id, w); err != nil {
			panic(fmt.Sprintf("dynmis: stream mirror attach (%d,%d): %v", id, w, err))
		}
		s.addEdge(id, w)
		s.touch(w)
		b = append(b, InsertEdge(id, w))
	}
	return b
}

// nodeRemove emits a node removal, mirroring the cascade of incident-edge
// deletions into the side structures.
func (s *streamState) nodeRemove(b Batch, r *rng.RNG, locality float64) Batch {
	v := s.pickVertex(r, locality)
	former, err := s.d.RemoveNode(v)
	if err != nil {
		panic(fmt.Sprintf("dynmis: stream mirror remove node %d: %v", v, err))
	}
	for _, w := range former {
		s.dropEdge(v, int(w))
		s.touch(int(w))
	}
	i, last := s.pos[v], len(s.alive)-1
	if i != last {
		moved := s.alive[last]
		s.alive[i] = moved
		s.pos[moved] = i
	}
	s.alive = s.alive[:last]
	s.pos[v] = -1
	return append(b, RemoveNode(v))
}
