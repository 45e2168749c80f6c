// Shattering: a phase-by-phase walkthrough of the paper's pipeline on a
// heavy-tailed graph. It runs Algorithm 1 under a stressed parameter
// profile (so the bad set actually populates at this scale), prints the
// per-scale Invariant data, the component structure of G[B] (Lemma 3.7's
// shattering), and the finishing stages' costs.
//
//	go run ./examples/shattering
package main

import (
	"fmt"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/mis/base"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run() error {
	const n, alpha = 8192, 3
	// Heavy-tailed degrees: preferential attachment with out-degree α.
	g := repro.PreferentialAttachment(n, alpha, 11)
	fmt.Printf("graph: n=%d m=%d Δ=%d (heavy-tailed)\n", g.N(), g.M(), g.MaxDegree())

	// Stress the profile: one iteration per scale and a 4× stricter bad
	// test, so nodes actually get expelled to B.
	params := repro.PracticalParams(alpha, g.MaxDegree())
	params.Iterations = 1
	for k := 1; k <= params.NumScales; k++ {
		params.SetBadLimit(k, params.BadLimit(k)/4)
	}
	fmt.Printf("params: Θ=%d scales, Λ=%d iteration/scale (stressed)\n\n", params.NumScales, params.Iterations)

	// Algorithm 1's scale records ride the run's event stream.
	var events trace.MemorySink
	out, err := repro.ComputeMISWithParams(g, params, repro.Options{Seed: 5, Events: &events})
	if err != nil {
		return err
	}

	// Phase 1: the shattering stage.
	alg1 := out.Alg1
	fmt.Printf("phase 1 (BoundedArbIndependentSet): %d rounds\n", out.Stages[0].Result.Rounds)
	fmt.Printf("  joined I:  %5d\n", base.Count(alg1, base.StatusInMIS))
	fmt.Printf("  dominated: %5d\n", base.Count(alg1, base.StatusDominated))
	fmt.Printf("  bad (B):   %5d\n", base.Count(alg1, base.StatusBad))
	fmt.Printf("  deferred:  %5d\n\n", base.Count(alg1, base.StatusActive))

	// The Invariant, per scale: worst surviving high-degree-neighbor count.
	fmt.Println("Invariant per scale (max high-degree neighbors among survivors vs bound):")
	records := core.ScaleRecords(events.Events, params, n)
	for k := 1; k <= params.NumScales; k++ {
		worst, bound, seen := 0, 0, false
		for v, tr := range records {
			if alg1[v] == base.StatusBad && len(tr) == k {
				continue // expelled at this scale
			}
			for _, rec := range tr {
				if rec.Scale == k {
					seen = true
					bound = rec.Bound
					if rec.HighDegNbrs > worst {
						worst = rec.HighDegNbrs
					}
				}
			}
		}
		if seen {
			fmt.Printf("  scale %d: max=%d bound=%d\n", k, worst, bound)
		}
	}

	// Phase 2: shattering structure of G[B].
	fmt.Printf("\nLemma 3.7 shattering: G[B] has %d components", len(out.BadComponentSizes))
	if len(out.BadComponentSizes) > 0 {
		fmt.Printf(", largest %d of n=%d", out.BadComponentSizes[0], n)
	}
	fmt.Println()

	// Phase 3: the finishing stages.
	fmt.Println("\nfinishing stages:")
	for _, s := range out.Stages[1:] {
		fmt.Printf("  %-4s nodes=%-6d rounds=%d\n", s.Name, s.Nodes, s.Result.Rounds)
	}
	fmt.Printf("\nfinal: |MIS|=%d, %d total rounds — verified maximal independent set\n",
		out.MISSize(), out.TotalRounds())
	return nil
}
