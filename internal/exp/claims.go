package exp

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/metivier"
	"repro/internal/shatter"
	"repro/internal/stats"
	"repro/internal/trace"
)

// E1RoundsVsN reproduces Theorem 2.1's growth claim: ArbMIS round counts on
// bounded-arboricity graphs grow like poly(α)·√(log n · log log n) — i.e.
// distinctly slower in n than the Θ(log n) of Métivier/Luby. The table
// reports mean rounds and the rounds normalized by each theory shape; the
// reproduction succeeds if the ArbMIS-normalized column is flat or falling
// while Métivier's rounds/log n column is flat (its rounds/√-shape column
// rises).
func E1RoundsVsN(c Config) (*Report, error) {
	ns := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	if c.Quick {
		ns = []int{1 << 8, 1 << 10}
	}
	alphas := []int{1, 2, 3}
	if c.Quick {
		alphas = []int{1, 2}
	}
	table := stats.NewTable("Theorem 2.1 — rounds vs n (mean over seeds)",
		"alpha", "n", "arbmis", "arbmis/shape", "metivier", "metivier/log2n")
	var firstRatio, lastRatio float64
	for _, alpha := range alphas {
		for ni, n := range ns {
			label := uint64(alpha)<<32 | uint64(n)
			var arb, met stats.Summary
			for i := 0; i < c.seeds(); i++ {
				g := arbGraph(n, alpha, c.graphRNG(label, i))
				out, err := practicalArbMIS(g, alpha, c.opts(label, i))
				if err != nil {
					return nil, fmt.Errorf("E1: arbmis n=%d: %w", n, err)
				}
				arb.Add(float64(out.TotalRounds()))
				_, res, err := metivier.Run(g, c.opts(label+1, i))
				if err != nil {
					return nil, fmt.Errorf("E1: metivier n=%d: %w", n, err)
				}
				met.Add(float64(res.Rounds))
			}
			shape := sqrtLogShape(n)
			table.AddRow(alpha, n,
				arb.Mean(), arb.Mean()/shape,
				met.Mean(), met.Mean()/math.Log2(float64(n)))
			if alpha == alphas[0] {
				if ni == 0 {
					firstRatio = arb.Mean() / shape
				}
				lastRatio = arb.Mean() / shape
			}
		}
	}
	rep := &Report{
		ID:    "E1",
		Title: "ArbMIS rounds grow ~ poly(α)·√(log n·log log n); Métivier ~ log n",
		Table: table,
	}
	trend := "flat-or-falling (shape reproduced)"
	if lastRatio > 1.5*firstRatio {
		trend = "rising (shape NOT reproduced at this scale)"
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"arbmis/shape ratio at α=%d went %.2f → %.2f across the n sweep: %s",
		alphas[0], firstRatio, lastRatio, trend))
	rep.Notes = append(rep.Notes,
		"absolute rounds: at laptop scale the shattering constants dominate and Métivier wins outright; the reproduced claim is the growth shape, with the crossover beyond feasible n (see EXPERIMENTS.md).")
	return rep, nil
}

// E2RoundsVsArboricity reproduces the poly(α) dependence of Theorem 2.1 at
// fixed n, and the paper's own concession (§1.2) that Ghaffari's
// O(log α + √log n) dominates for every α.
func E2RoundsVsArboricity(c Config) (*Report, error) {
	n := 1 << 13
	alphas := []int{1, 2, 3, 4, 6, 8}
	if c.Quick {
		n = 1 << 9
		alphas = []int{1, 2, 3}
	}
	table := stats.NewTable(fmt.Sprintf("Theorem 2.1 — rounds vs α (n=%d)", n),
		"alpha", "delta", "theta", "lambda", "alg1", "finish", "total")
	var xs, ys []float64
	for _, alpha := range alphas {
		label := uint64(0xE2)<<32 | uint64(alpha)
		var alg1R, finR, totR, deltaS stats.Summary
		var theta, lambda int
		for i := 0; i < c.seeds(); i++ {
			g := arbGraph(n, alpha, c.graphRNG(label, i))
			params := core.PracticalParams(alpha, g.MaxDegree())
			theta, lambda = params.NumScales, params.Iterations
			out, err := core.ArbMIS(g, params, c.opts(label, i))
			if err != nil {
				return nil, fmt.Errorf("E2: alpha=%d: %w", alpha, err)
			}
			alg1R.Add(float64(out.Stages[0].Result.Rounds))
			finR.Add(float64(out.TotalRounds() - out.Stages[0].Result.Rounds))
			totR.Add(float64(out.TotalRounds()))
			deltaS.Add(float64(g.MaxDegree()))
		}
		table.AddRow(alpha, deltaS.Mean(), theta, lambda, alg1R.Mean(), finR.Mean(), totR.Mean())
		xs = append(xs, float64(alpha))
		ys = append(ys, totR.Mean())
	}
	rep := &Report{
		ID:    "E2",
		Title: "round count grows polynomially (mildly, at practical constants) with α",
		Table: table,
	}
	if cFit, e, ok := stats.PowerFit(xs, ys); ok {
		rep.Notes = append(rep.Notes, fmt.Sprintf("power fit: rounds ≈ %.1f·α^%.2f", cFit, e))
	}
	return rep, nil
}

// E3BadNodeProbability reproduces Theorem 3.6: Pr[v ∈ B] ≤ 1/Δ²ᵖ. Degree
// spread is needed for bad nodes to be possible at all, so the workload is
// preferential attachment (heavy-tailed degrees) plus union-of-trees.
func E3BadNodeProbability(c Config) (*Report, error) {
	ns := []int{1 << 10, 1 << 12, 1 << 14}
	if c.Quick {
		ns = []int{1 << 8, 1 << 10}
	}
	table := stats.NewTable("Theorem 3.6 — empirical Pr[v ∈ B] vs the 1/Δ² bound",
		"family", "n", "delta", "badFrac", "bound 1/Δ²", "ok")
	violated := 0
	for _, fam := range []string{"pa3", "union3"} {
		for _, n := range ns {
			label := uint64(0xE3)<<32 | uint64(n)
			if fam == "pa3" {
				label ^= 0xABCD
			}
			var badFrac, deltaS stats.Summary
			for i := 0; i < c.seeds(); i++ {
				r := c.graphRNG(label, i)
				g := arbGraph(n, 3, r)
				if fam == "pa3" {
					g = gen.PreferentialAttachment(n, 3, r)
				}
				params := core.PracticalParams(3, g.MaxDegree())
				statuses, _, err := core.RunAlg1(g, params, c.opts(label, i))
				if err != nil {
					return nil, fmt.Errorf("E3: %s n=%d: %w", fam, n, err)
				}
				badFrac.Add(float64(base.Count(statuses, base.StatusBad)) / float64(n))
				deltaS.Add(float64(g.MaxDegree()))
			}
			bound := 1 / (deltaS.Mean() * deltaS.Mean())
			ok := badFrac.Mean() <= bound+3*badFrac.CI95()
			if !ok {
				violated++
			}
			table.AddRow(fam, n, deltaS.Mean(), badFrac.Mean(), bound, ok)
		}
	}
	rep := &Report{
		ID:    "E3",
		Title: "nodes join the bad set B with probability at most 1/Δ^2p",
		Table: table,
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d of %d rows exceeded the bound (0 expected)", violated, table.NumRows()))
	return rep, nil
}

// E4Shattering reproduces the shattering phenomenon behind Lemma 3.7. Two
// measurements per scale:
//
//   - the surviving active set's size and largest connected component —
//     the quantity whose collapse is what "shattering" means operationally
//     (components of survivors, hence of any B ⊆ survivors, are small);
//   - the measured bad set against the lemma's Δ⁶·log_Δ n bound. At laptop
//     scale B is typically empty — the iterations beat the analysis's
//     guarantees — which satisfies the lemma vacuously and is reported
//     as-is.
func E4Shattering(c Config) (*Report, error) {
	n := 1 << 14
	if c.Quick {
		n = 1 << 10
	}
	table := stats.NewTable(fmt.Sprintf("Lemma 3.7 — shattering per scale (PA graphs, n=%d, α=3, Λ=1)", n),
		"scale", "active/n", "maxActiveComp", "|B| so far", "maxBadComp", "lemma bound")
	label := uint64(0xE4)
	type row struct {
		active, maxComp, bad, maxBad stats.Summary
	}
	var deltaS stats.Summary
	rows := map[int]*row{}
	maxScale := 0
	for i := 0; i < c.seeds(); i++ {
		g := gen.PreferentialAttachment(n, 3, c.graphRNG(label, i))
		params := stressParams(3, g.MaxDegree())
		statuses, records, err := runAlg1Records(g, params, c.opts(label, i))
		if err != nil {
			return nil, fmt.Errorf("E4: %w", err)
		}
		deltaS.Add(float64(g.MaxDegree()))
		for k := 1; k <= params.NumScales; k++ {
			var survivors, bad []int
			for v, tr := range records {
				if statuses[v] == base.StatusBad && len(tr) <= k {
					bad = append(bad, v) // expelled at or before scale k
					continue
				}
				if len(tr) >= k {
					survivors = append(survivors, v)
				}
			}
			if len(survivors) == 0 && len(bad) == 0 && k > 1 {
				break
			}
			stA, err := shatter.Analyze(g, survivors)
			if err != nil {
				return nil, err
			}
			stB, err := shatter.Analyze(g, bad)
			if err != nil {
				return nil, err
			}
			rw := rows[k]
			if rw == nil {
				rw = &row{}
				rows[k] = rw
			}
			rw.active.Add(float64(len(survivors)) / float64(n))
			rw.maxComp.Add(float64(stA.MaxSize()))
			rw.bad.Add(float64(len(bad)))
			rw.maxBad.Add(float64(stB.MaxSize()))
			if k > maxScale {
				maxScale = k
			}
		}
	}
	for k := 1; k <= maxScale; k++ {
		rw := rows[k]
		if rw == nil {
			continue
		}
		bound := shatter.Lemma37Bound(int(deltaS.Mean()), n, 1)
		table.AddRow(k, rw.active.Mean(), rw.maxComp.Mean(), rw.bad.Mean(), rw.maxBad.Mean(), bound)
	}
	rep := &Report{
		ID:    "E4",
		Title: "survivor components collapse scale over scale; measured B (often empty) is far inside the Δ⁶·log_Δ n bound",
		Table: table,
	}
	rep.Notes = append(rep.Notes,
		"an empty B satisfies Lemma 3.7 vacuously: at laptop scale the priority iterations clear high-degree neighborhoods faster than the analysis guarantees.")
	return rep, nil
}

// runAlg1Records runs Algorithm 1 and rebuilds each node's scale records
// from the run's node-state events, which still reach opts.Events.
func runAlg1Records(g *graph.Graph, params *core.Params, opts congest.Options) ([]base.Status, [][]core.ScaleRecord, error) {
	var states []trace.Event
	opts.Events = tap{next: opts.Events, fn: func(e trace.Event) {
		if e.Type == trace.EvNodeState {
			states = append(states, e)
		}
	}}
	statuses, _, err := core.RunAlg1(g, params, opts)
	if err != nil {
		return nil, nil, err
	}
	return statuses, core.ScaleRecords(states, params, g.N()), nil
}

// stressParams tightens the practical profile so bad nodes actually occur:
// one iteration per scale and bad thresholds four times stricter.
func stressParams(alpha, delta int) *core.Params {
	p := core.PracticalParams(alpha, delta)
	p.Iterations = 1
	for k := 1; k <= p.NumScales; k++ {
		p.SetBadLimit(k, p.BadLimit(k)/4)
	}
	return p
}

// E5Invariant reproduces the paper's Invariant (§3): at the end of every
// scale k, each surviving node has at most Δ/2ᵏ⁺² active neighbors of
// degree above Δ/2ᵏ + α. The traces give, per scale, the worst surviving
// node's count against the bound; by construction violators moved to B, so
// the table also reports how many were expelled per scale (the Invariant's
// real content is that this number is tiny — Theorem 3.6).
func E5Invariant(c Config) (*Report, error) {
	n := 1 << 13
	if c.Quick {
		n = 1 << 9
	}
	label := uint64(0xE5)
	table := stats.NewTable(fmt.Sprintf("Invariant — per-scale high-degree neighbor counts (n=%d, α=3, scale 1 stalled)", n),
		"scale", "bound", "maxSurvivor", "meanSurvivor", "expelled")
	type agg struct {
		max      int
		sum, cnt float64
		expelled int
		bound    int
	}
	perScale := map[int]*agg{}
	maxScale := 0
	for i := 0; i < c.seeds(); i++ {
		g := gen.PreferentialAttachment(n, 3, c.graphRNG(label, i))
		params := stressParams(3, g.MaxDegree())
		// Stall scale 1 (ρ₁ = 0 makes every node non-competitive there) so
		// high-degree neighborhoods survive to the first bad test and the
		// Invariant's enforcement — not just its vacuous satisfaction — is
		// visible. Without this, hubs die in the very first iteration and
		// every count is zero (the E5 result under normal parameters).
		params.SetRho(1, 0)
		statuses, records, err := runAlg1Records(g, params, c.opts(label, i))
		if err != nil {
			return nil, fmt.Errorf("E5: %w", err)
		}
		for v, tr := range records {
			for idx, rec := range tr {
				a := perScale[rec.Scale]
				if a == nil {
					a = &agg{}
					perScale[rec.Scale] = a
				}
				a.bound = rec.Bound
				if rec.Scale > maxScale {
					maxScale = rec.Scale
				}
				expelledHere := statuses[v] == base.StatusBad && idx == len(tr)-1
				if expelledHere {
					a.expelled++
					continue
				}
				if rec.HighDegNbrs > a.max {
					a.max = rec.HighDegNbrs
				}
				a.sum += float64(rec.HighDegNbrs)
				a.cnt++
			}
		}
	}
	for k := 1; k <= maxScale; k++ {
		a := perScale[k]
		if a == nil {
			continue
		}
		mean := 0.0
		if a.cnt > 0 {
			mean = a.sum / a.cnt
		}
		table.AddRow(k, a.bound, a.max, mean, a.expelled)
	}
	rep := &Report{
		ID:    "E5",
		Title: "surviving nodes respect the Invariant at every scale; violators (few) move to B",
		Table: table,
	}
	return rep, nil
}
