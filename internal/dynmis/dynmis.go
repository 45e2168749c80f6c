// Package dynmis maintains a maximal independent set over a dynamic graph
// under streaming updates — the long-lived-instance scenario: an unbounded
// stream of edge and node mutations against one graph, with the MIS kept
// valid after every batch.
//
// The engine applies updates in deterministic batches (InsertEdge /
// RemoveEdge / InsertNode / RemoveNode), discovers the affected region
// (BFS from the violated and orphaned vertices, grown until the frontier
// is MIS-stable — see region.go), and repairs it by re-running the CONGEST
// machinery on that region alone, with everything outside frozen as
// boundary constraints (repair.go). The motivation comes straight from the
// reproduced paper: the shattering analysis bounds the residual components
// that survive the randomized phase, and an update's consequences have
// exactly that local structure — so re-running the engine on the region
// beats recomputing from scratch by the ratio of region size to graph
// size (TestGoldenStreamFingerprint bounds the gap in messages).
//
// Determinism extends from single runs to streams: for a fixed (graph,
// seed, update stream), the maintained MIS, the region of every repair,
// and the trace fingerprint of every repair run are bit-identical across
// the sequential and worker-pool CONGEST drivers. Each repair seeds its
// run from (engine seed, batch index) alone, so the guarantee survives
// replay from any prefix.
package dynmis

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/metivier"
	"repro/internal/trace"
)

// Options configures an Engine.
type Options struct {
	// Seed is the engine's root seed: repair run b draws its CONGEST seed
	// from (Seed, b), so the whole stream's randomness derives from it.
	Seed uint64
	// Driver selects the CONGEST driver for repair runs (the zero value
	// is sequential).
	Driver congest.DriverKind
	// Workers is the pool driver's worker count (0 = GOMAXPROCS).
	Workers int
	// MaxRounds caps each repair run (0 = the CONGEST default).
	MaxRounds int
	// Events, when non-nil, receives one deterministic trace.EvRepair
	// event per applied batch (bootstrap included): Round = batch index,
	// V = region size, W = free vertices, X = repair rounds, Y = the
	// repair run's trace fingerprint, Z = messages delivered.
	Events trace.Sink
}

// BatchReport accounts one applied batch and its repair.
type BatchReport struct {
	// Batch is the batch index; 0 is the bootstrap (the initial full
	// compute, modeled as a repair whose region is the whole graph).
	Batch int
	// Updates is the number of updates the batch carried.
	Updates int
	// Seeds counts the violated/orphaned vertices the region grew from.
	Seeds int
	// Region is the repaired-region size; Frozen of those were excluded
	// as dominated by a frozen outside-MIS vertex, and Free were
	// re-decided by the CONGEST run.
	Region, Frozen, Free int
	// Rounds and Messages account the repair run (zero when the batch
	// needed no repair).
	Rounds   int
	Messages int64
	// RepairFingerprint is the repair run's deterministic trace
	// fingerprint (zero when no repair ran); StreamFingerprint is the
	// engine's running fold over every batch so far.
	RepairFingerprint uint64
	StreamFingerprint uint64
}

// Stats aggregates an engine's lifetime accounting.
type Stats struct {
	// Batches counts applied batches, bootstrap included; Updates counts
	// individual updates (the bootstrap contributes none).
	Batches, Updates int
	// Repairs counts the batches that needed a repair run.
	Repairs int
	// RegionVertices sums repaired-region sizes; FrozenVertices the
	// boundary-dominated exclusions.
	RegionVertices, FrozenVertices int64
	// Rounds and Messages sum over every repair run.
	Rounds   int64
	Messages int64
}

// Engine maintains a maximal independent set over a DGraph. Construct
// with New; an Engine is not safe for concurrent use.
type Engine struct {
	opts  Options
	d     *DGraph
	inMIS []bool
	fp    uint64
	stats Stats
	err   error // first fatal error; poisons the engine

	// Per-batch scratch. slot[v] is 0 outside the region; inside, -1, and
	// once the repair splits the region 1 + its subgraph ID if v is free.
	// The repair clears it over the region: Apply pays no O(n) reset.
	slot     []int32
	rec      trace.Recorder // the repair run's trace fingerprint
	region   []int
	seeds    []int
	free     []int
	affected []int
	edges    []graph.Edge

	// The repair run's engine, kept for the Engine's life so that a repair
	// pays for its region and not for set-up: each repair rebuilds sub in
	// place and rebinds run to it, over the one Métivier factory.
	sub     graph.Graph
	run     congest.Runner
	factory func(v int) congest.Node
}

// New builds an engine over a snapshot of g and bootstraps the maintained
// set with a full CONGEST run, recorded as batch 0: every vertex starts
// orphaned, so the repair region is the whole graph and the bootstrap goes
// through the same code path — and the same fingerprint fold — as every
// later batch.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	if g == nil {
		return nil, errors.New("dynmis: nil graph")
	}
	n := g.N()
	e := &Engine{
		opts:    opts,
		d:       NewDGraph(g),
		inMIS:   make([]bool, n),
		fp:      trace.FoldSeed,
		slot:    make([]int32, n),
		factory: metivier.New(),
	}
	rep := BatchReport{Batch: 0}
	affected := e.affected[:0]
	for v := 0; v < n; v++ {
		affected = append(affected, v)
	}
	e.affected = affected
	if err := e.runBatch(&rep, affected); err != nil {
		return nil, err
	}
	// Batch 0's region is every vertex. Drop its scratch, subgraph, Runner
	// and factory, so the kept ones grow only to a repair region's size.
	e.region, e.seeds, e.free, e.affected, e.edges = nil, nil, nil, nil, nil
	e.sub, e.run, e.factory = graph.Graph{}, congest.Runner{}, metivier.New()
	return e, nil
}

// Apply runs one batch: the updates are applied to the graph sequentially
// in order, then a single incremental repair re-establishes the MIS. The
// returned report accounts the batch; rep.StreamFingerprint is the running
// stream fingerprint after the batch.
//
// A batch is atomic with respect to repair, not with respect to
// validation: an invalid update (unknown op, absent edge, dead endpoint,
// ...) aborts the batch mid-application and poisons the engine — the error
// is sticky and every later call returns it. Streams are deterministic, so
// a poisoned engine means the stream itself is malformed; there is nothing
// to recover.
func (e *Engine) Apply(b Batch) (BatchReport, error) {
	if e.err != nil {
		return BatchReport{}, e.err
	}
	rep := BatchReport{Batch: e.stats.Batches, Updates: len(b)}
	affected := e.affected[:0]
	for i, u := range b {
		var err error
		affected, err = e.update(u, affected)
		if err != nil {
			e.affected = affected
			e.err = fmt.Errorf("dynmis: batch %d update %d (%v): %w", rep.Batch, i, u, err)
			return BatchReport{}, e.err
		}
	}
	// Canonicalize the touched set: sorted, deduped, live vertices only.
	sort.Ints(affected)
	k := 0
	for i, v := range affected {
		if i > 0 && v == affected[i-1] {
			continue
		}
		if !e.d.Alive(v) {
			continue
		}
		affected[k] = v
		k++
	}
	affected = affected[:k]
	e.affected = affected
	if err := e.runBatch(&rep, affected); err != nil {
		e.err = err
		return BatchReport{}, err
	}
	return rep, nil
}

// update applies one update to the graph and appends the vertices it
// touched to affected. An ID the constructors could not hold in int32 is
// refused before any mutation.
func (e *Engine) update(u Update, affected []int) ([]int, error) {
	if u.U == wideID || (u.V == wideID && (u.Op == OpInsertEdge || u.Op == OpRemoveEdge)) {
		return affected, fmt.Errorf("vertex ID outside int32 (held as %d)", wideID)
	}
	x, y := int(u.U), int(u.V)
	switch u.Op {
	case OpInsertEdge:
		return append(affected, x, y), e.d.InsertEdge(x, y)
	case OpRemoveEdge:
		return append(affected, x, y), e.d.RemoveEdge(x, y)
	case OpInsertNode:
		if x != -1 && x != e.d.NumIDs() {
			return affected, fmt.Errorf("expected node ID %d, next is %d", x, e.d.NumIDs())
		}
		id := e.d.InsertNode()
		e.inMIS = append(e.inMIS, false)
		e.slot = append(e.slot, 0)
		return append(affected, id), nil
	case OpRemoveNode:
		former, err := e.d.RemoveNode(x)
		if err != nil {
			return affected, err
		}
		e.inMIS[x] = false
		for _, w := range former {
			affected = append(affected, int(w))
		}
		return affected, nil
	default:
		return affected, fmt.Errorf("invalid op %v", u.Op)
	}
}

// runBatch does the shared post-mutation half of New and Apply: seed
// discovery, region growth, repair, fingerprint fold, stats, event.
func (e *Engine) runBatch(rep *BatchReport, affected []int) error {
	seeds := e.seedsFrom(affected)
	rep.Seeds = len(seeds)
	if len(seeds) > 0 {
		region := e.growRegion(seeds)
		rep.Region = len(region)
		if err := e.repair(region, rep); err != nil {
			return err
		}
		e.stats.Repairs++
	}
	e.fp = foldReport(e.fp, rep)
	rep.StreamFingerprint = e.fp

	e.stats.Batches++
	e.stats.Updates += rep.Updates
	e.stats.RegionVertices += int64(rep.Region)
	e.stats.FrozenVertices += int64(rep.Frozen)
	e.stats.Rounds += int64(rep.Rounds)
	e.stats.Messages += rep.Messages

	if e.opts.Events != nil {
		e.opts.Events.Emit(trace.Event{
			Type:  trace.EvRepair,
			Round: int32(rep.Batch),
			V:     int32(rep.Region),
			W:     int32(rep.Free),
			X:     int64(rep.Rounds),
			Y:     int64(rep.RepairFingerprint),
			Z:     rep.Messages,
		})
	}
	return nil
}

// foldReport folds one batch's deterministic facts into the stream
// fingerprint: the batch shape, the region decomposition, and the repair
// run's own trace fingerprint. Two engines agree on the stream fingerprint
// iff they agreed on every batch — the cross-driver golden tests pin it.
func foldReport(h uint64, rep *BatchReport) uint64 {
	h = trace.Fold(h, uint64(rep.Batch)<<32|uint64(uint32(rep.Updates)))
	h = trace.Fold(h, uint64(rep.Seeds)<<32|uint64(uint32(rep.Region)))
	h = trace.Fold(h, uint64(rep.Frozen)<<32|uint64(uint32(rep.Free)))
	h = trace.Fold(h, uint64(rep.Rounds))
	h = trace.Fold(h, uint64(rep.Messages))
	return trace.Fold(h, rep.RepairFingerprint)
}

// Err returns the engine's sticky error (nil while healthy).
func (e *Engine) Err() error { return e.err }

// Fingerprint returns the running stream fingerprint: a fold over every
// applied batch (bootstrap included) covering the region decompositions
// and each repair run's deterministic trace fingerprint.
func (e *Engine) Fingerprint() uint64 { return e.fp }

// Batches returns the number of applied batches, bootstrap included.
func (e *Engine) Batches() int { return e.stats.Batches }

// Stats returns the engine's lifetime accounting.
func (e *Engine) Stats() Stats { return e.stats }

// Graph returns the engine's dynamic graph. The caller must treat it as
// read-only: mutating it behind the engine's back invalidates the
// maintained set.
func (e *Engine) Graph() *DGraph { return e.d }

// IsInMIS reports whether vertex v is in the maintained set. Dead and
// out-of-range IDs report false.
func (e *Engine) IsInMIS(v int) bool {
	return v >= 0 && v < len(e.inMIS) && e.inMIS[v]
}

// MIS returns the maintained set as a sorted slice of live vertex IDs
// (freshly allocated).
func (e *Engine) MIS() []int {
	out := make([]int, 0, len(e.inMIS)/4+1)
	for v, in := range e.inMIS {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// Verify checks the maintained set directly against the dynamic graph:
// dead vertices are outside the set, no two set members are adjacent
// (independence), and every live non-member has a member neighbor
// (maximality). It is the engine's self-check, used by the property tests
// after every batch.
func (e *Engine) Verify() error {
	for v := 0; v < e.d.NumIDs(); v++ {
		if !e.d.Alive(v) {
			if e.inMIS[v] {
				return fmt.Errorf("dynmis: removed vertex %d still in MIS", v)
			}
			continue
		}
		dominated := false
		for _, w := range e.d.Neighbors(v) {
			if e.inMIS[w] {
				if e.inMIS[v] {
					return fmt.Errorf("dynmis: independence violated: edge (%d,%d) inside MIS", v, w)
				}
				dominated = true
				break
			}
		}
		if !e.inMIS[v] && !dominated {
			return fmt.Errorf("dynmis: maximality violated: vertex %d has no MIS neighbor", v)
		}
	}
	return nil
}
