package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/ghaffari"
	"repro/internal/shatter"
)

// Stage identifies one run of the ArbMIS pipeline with its cost.
type Stage struct {
	// Name is the stage label ("alg1", "vlo", "vhi", "bad").
	Name string
	// Nodes is the size of the subgraph the stage ran on.
	Nodes int
	// Result carries the stage's engine accounting.
	Result congest.Result
}

// Outcome is the result of a full ArbMIS run.
type Outcome struct {
	// MIS marks the final maximal independent set; it is verified against
	// the input graph before ArbMIS returns.
	MIS []bool
	// Alg1 holds each node's status after the shattering stage
	// (Algorithm 1; see RunAlg1).
	Alg1 []base.Status
	// Stages lists every pipeline stage in execution order.
	Stages []Stage
	// BadComponentSizes are the connected-component sizes of G[B]
	// (Lemma 3.7's shattering quantity), largest first.
	BadComponentSizes []int
	// VloSize and VhiSize are the sizes of the deferred-set split.
	VloSize, VhiSize int
}

// TotalRounds sums engine rounds across stages. The pipeline stages
// compose sequentially in the paper as well, so the sum is the honest
// CONGEST round count of the whole algorithm.
func (o *Outcome) TotalRounds() int {
	t := 0
	for _, s := range o.Stages {
		t += s.Result.Rounds
	}
	return t
}

// TotalMessages sums delivered messages across stages.
func (o *Outcome) TotalMessages() int64 {
	var t int64
	for _, s := range o.Stages {
		t += s.Result.Messages
	}
	return t
}

// MaxMessageBits returns the largest single message across stages.
func (o *Outcome) MaxMessageBits() int {
	m := 0
	for _, s := range o.Stages {
		if s.Result.MaxMessageBits > m {
			m = s.Result.MaxMessageBits
		}
	}
	return m
}

// MISSize returns |MIS|.
func (o *Outcome) MISSize() int { return graph.SetSize(o.MIS) }

// ArbMIS runs the full Algorithm 2 pipeline on g:
//
//  1. BoundedArbIndependentSet (Algorithm 1) yields I, the bad set B, and
//     the deferred set V_IB.
//  2. V_IB splits into V_lo / V_hi at the last scale's high-degree
//     threshold Δ/2^Θ + α (which is exactly the paper's
//     1176·16·α¹⁰·ln²Δ + α when Θ takes its defining value); by the
//     Invariant, G[V_hi] has small maximum degree.
//  3. An MIS of G[V_lo], then of G[V_hi \ Γ(I_lo)], is computed with
//     Ghaffari's algorithm (substituting for Barenboim et al. Theorem 7.4,
//     which this repository does not reproduce separately — both are
//     "fast MIS on bounded-degree sparse graphs" black boxes here).
//  4. The bad set is finished deterministically with the local-minimum
//     sweep, whose round count is bounded by the largest component of
//     G[B] — small by shattering (Lemma 3.7). Algorithm 2 as printed
//     computes each bad component's MIS in isolation, which can conflict
//     with I_lo/I_hi across B–V_IB edges; as in the standard shattering
//     composition we run the finisher on B \ Γ(I ∪ I_lo ∪ I_hi).
//
// The returned MIS is verified; an error means a bug, never bad luck.
func ArbMIS(g *graph.Graph, params *Params, opts congest.Options) (*Outcome, error) {
	return arbMIS(g, params, opts, localMinStage)
}

// stageFn computes an MIS of a subgraph, returning per-node statuses and
// the stage's round accounting.
type stageFn func(sub *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error)

func arbMIS(g *graph.Graph, params *Params, opts congest.Options, badFinisher stageFn) (*Outcome, error) {
	statuses, res, err := RunAlg1(g, params, opts)
	if err != nil {
		return nil, fmt.Errorf("core: algorithm 1: %w", err)
	}
	o := &Outcome{
		MIS:  make([]bool, g.N()),
		Alg1: statuses,
		Stages: []Stage{{
			Name:   "alg1",
			Nodes:  g.N(),
			Result: res,
		}},
	}
	var deferred, bad []int
	for v, s := range statuses {
		switch s {
		case base.StatusInMIS:
			o.MIS[v] = true
		case base.StatusBad:
			bad = append(bad, v)
		case base.StatusActive:
			deferred = append(deferred, v)
		}
	}

	// Shattering statistics on the full bad set (Lemma 3.7).
	st, err := shatter.Analyze(g, bad)
	if err != nil {
		return nil, fmt.Errorf("core: bad-set components: %w", err)
	}
	o.BadComponentSizes = st.Sizes

	// Split the deferred set by active degree within it.
	vlo, vhi, err := splitDeferred(g, deferred, params)
	if err != nil {
		return nil, err
	}
	o.VloSize, o.VhiSize = len(vlo), len(vhi)

	seedOffset := uint64(1)
	randomStage := func(name string, vertices []int) error {
		stage, err := runStage(g, vertices, name, func(sub *graph.Graph) ([]base.Status, congest.Result, error) {
			return ghaffari.Run(sub, stageOpts(opts, seedOffset))
		}, o.MIS)
		seedOffset++
		if err != nil {
			return err
		}
		o.Stages = append(o.Stages, stage)
		return nil
	}
	if err := randomStage("vlo", vlo); err != nil {
		return nil, err
	}
	if err := randomStage("vhi", excludeDominated(g, vhi, o.MIS)); err != nil {
		return nil, err
	}
	badStage, err := runStage(g, excludeDominated(g, bad, o.MIS), "bad", func(sub *graph.Graph) ([]base.Status, congest.Result, error) {
		return badFinisher(sub, stageOpts(opts, seedOffset))
	}, o.MIS)
	if err != nil {
		return nil, err
	}
	o.Stages = append(o.Stages, badStage)

	if err := g.VerifyMIS(o.MIS); err != nil {
		return nil, fmt.Errorf("core: pipeline produced an invalid MIS: %w", err)
	}
	return o, nil
}

// stageOpts derives per-stage options: a distinct seed stream per stage,
// same driver and limits.
func stageOpts(opts congest.Options, offset uint64) congest.Options {
	opts.Seed = opts.Seed*0x9e3779b97f4a7c15 + offset
	return opts
}

// runStage computes an MIS of G[vertices] with the supplied algorithm and
// merges the members into mis (indexed by original IDs).
func runStage(g *graph.Graph, vertices []int, name string, run func(sub *graph.Graph) ([]base.Status, congest.Result, error), mis []bool) (Stage, error) {
	stage := Stage{Name: name, Nodes: len(vertices)}
	if len(vertices) == 0 {
		return stage, nil
	}
	sub, orig, err := g.InducedSubgraph(vertices)
	if err != nil {
		return stage, fmt.Errorf("core: stage %s: %w", name, err)
	}
	statuses, res, err := run(sub)
	if err != nil {
		return stage, fmt.Errorf("core: stage %s: %w", name, err)
	}
	stage.Result = res
	for i, s := range statuses {
		if s == base.StatusInMIS {
			mis[orig[i]] = true
		}
	}
	return stage, nil
}

// splitDeferred partitions the deferred vertices into V_lo (active degree
// within the deferred set at most Δ/2^Θ + α) and V_hi (the rest). With
// Θ = 0 every deferred vertex lands in V_lo.
func splitDeferred(g *graph.Graph, deferred []int, params *Params) (vlo, vhi []int, err error) {
	if len(deferred) == 0 {
		return nil, nil, nil
	}
	threshold := params.Delta + params.Alpha
	if params.NumScales > 0 {
		threshold = params.HighDeg(params.NumScales)
	}
	inDeferred := make(map[int]bool, len(deferred))
	for _, v := range deferred {
		inDeferred[v] = true
	}
	for _, v := range deferred {
		deg := 0
		for _, w := range g.Neighbors(v) {
			if inDeferred[int(w)] {
				deg++
			}
		}
		if deg <= threshold {
			vlo = append(vlo, v)
		} else {
			vhi = append(vhi, v)
		}
	}
	return vlo, vhi, nil
}

// excludeDominated drops vertices already adjacent to the partial MIS.
func excludeDominated(g *graph.Graph, vertices []int, mis []bool) []int {
	var keep []int
	for _, v := range vertices {
		dominated := false
		for _, w := range g.Neighbors(v) {
			if mis[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, v)
		}
	}
	return keep
}
