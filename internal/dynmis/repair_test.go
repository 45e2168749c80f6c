package dynmis_test

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestRepairFingerprintMatchesRecorder checks the engine's repair
// fingerprint, folded on the fly by its trace.Recorder, against the
// offline trace.Fingerprint of the same run's captured events. The
// bootstrap is batch 0, whose region is the whole graph with nothing
// frozen, so its repair subgraph is g itself: its EvRepair event's Y must
// equal the fingerprint of Métivier's events on g under batch 0's seed.
func TestRepairFingerprintMatchesRecorder(t *testing.T) {
	const n, seed = 1 << 12, 77
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", gen.RandomTree(n, rng.New(5))},
		{"union-2", gen.UnionOfTrees(n, 2, rng.New(6))},
	} {
		t.Run(c.name+"/sequential", func(t *testing.T) {
			var sink trace.MemorySink
			if _, err := dynmis.New(c.g, dynmis.Options{Seed: seed, Events: &sink}); err != nil {
				t.Fatal(err)
			}
			if len(sink.Events) != 1 || sink.Events[0].Type != trace.EvRepair {
				t.Fatalf("bootstrap emitted %v, want one repair event", sink.Events)
			}
			boot := sink.Events[0]
			if int(boot.V) != n || int(boot.W) != n {
				t.Fatalf("bootstrap region %d with %d free, want the whole graph (%d)", boot.V, boot.W, n)
			}
			var run trace.MemorySink
			if _, _, err := metivier.Run(c.g, congest.Options{Seed: rng.New(seed).Split(0).Uint64(), Events: &run}); err != nil {
				t.Fatal(err)
			}
			if got, want := uint64(boot.Y), trace.Fingerprint(run.Events); got != want {
				t.Fatalf("bootstrap repair fingerprint %#016x, captured run %#016x", got, want)
			}
		})
	}
}
