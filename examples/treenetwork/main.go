// Treenetwork: the oriented-vs-unoriented contrast from the paper's
// introduction. On a *consistently oriented* tree (every node knows its
// parent), the deterministic Cole-Vishkin pipeline computes an MIS in
// O(log* n) rounds — essentially constant. On an *unoriented* tree the best
// known algorithms are randomized; this example runs both on the same
// topology and prints the gap.
//
//	go run ./examples/treenetwork
package main

import (
	"fmt"
	"os"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		g := repro.RandomTree(n, uint64(n))

		// Oriented case: root at vertex 0, BFS parents.
		parent := g.BFSForest()
		cvSet, cvRes, err := repro.ColeVishkin(g, parent, repro.Options{Seed: 1})
		if err != nil {
			return err
		}
		if err := repro.VerifyMIS(g, cvSet); err != nil {
			return err
		}

		// Unoriented case: randomized Métivier (the engine inside the
		// paper's algorithm), which never looks at the orientation.
		metSet, metRes, err := repro.Metivier(g, repro.Options{Seed: 1})
		if err != nil {
			return err
		}
		if err := repro.VerifyMIS(g, metSet); err != nil {
			return err
		}

		fmt.Printf("n=%-7d oriented Cole-Vishkin: %2d rounds (deterministic)   unoriented Métivier: %2d rounds (randomized)\n",
			n, cvRes.Rounds, metRes.Rounds)
	}
	fmt.Println("\nCole-Vishkin's rounds are flat (log* n); the randomized side grows with log n.")
	fmt.Println("The reproduced paper extends the unoriented-tree machinery to arboricity-α graphs.")
	return nil
}
