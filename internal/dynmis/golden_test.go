package dynmis_test

import (
	"fmt"
	"testing"

	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Golden regression pin for the dynamic-MIS engine: a fixed (graph, seed,
// stream) triple must reproduce this exact stream fingerprint, forever.
// Every repair runs on the sequential driver. The fingerprint folds every
// batch's region decomposition and every repair run's deterministic trace
// fingerprint, so it pins the whole pipeline: stream generation, region
// growth, boundary freezing, and the CONGEST repair runs. If a deliberate
// protocol change shifts the value, re-derive and update — such shifts
// must always be deliberate (see golden_test.go at the repo root for the
// idiom).
const goldenStreamFingerprint = "0xa63bebaa842283f0"

// goldenStream is one pinned (graph, stream, engine seed) triple.
type goldenStream struct {
	name    string
	g       *graph.Graph
	batches []dynmis.Batch
	seed    uint64
	want    string
	// workBar requires the bootstrap to send at least 10× the messages of
	// a mean repair batch: incremental repair must track an update's local
	// consequences, not the graph.
	workBar bool
}

// goldenStreams builds the pinned cases: the 512-vertex union with a
// local, churny stream, and a random tree and a union of two trees at
// n = 2^16 under 64 low-locality batches of 16 updates each, the regime
// where repair beats recomputation by the widest margin.
func goldenStreams(t *testing.T) []goldenStream {
	t.Helper()
	stream := func(g *graph.Graph, cfg dynmis.StreamConfig, r *rng.RNG) []dynmis.Batch {
		batches, err := dynmis.UpdateStream(g, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		return batches
	}
	root := rng.New(424242)
	g := gen.UnionOfTrees(512, 2, root.Split(1))
	cases := []goldenStream{{
		name:    "union-512",
		g:       g,
		batches: stream(g, dynmis.StreamConfig{Batches: 24, BatchSize: 10, Locality: 0.25, Churn: 0.15}, root.Split(2)),
		seed:    99,
		want:    goldenStreamFingerprint,
	}}

	const n = 1 << 16
	sparse := dynmis.StreamConfig{Batches: 64, BatchSize: 16, Locality: 0, Churn: 0.05}
	for _, c := range []struct {
		name  string
		split uint64
		graph func(*rng.RNG) *graph.Graph
		want  string
	}{
		{"tree-65536", 4, func(r *rng.RNG) *graph.Graph { return gen.RandomTree(n, r) }, "0xe8ddfe9f75a4da65"},
		{"union-65536", 5, func(r *rng.RNG) *graph.Graph { return gen.UnionOfTrees(n, 2, r) }, "0xe0a1d3aa26d8876c"},
	} {
		root := rng.New(1).Split(0xE20).Split(c.split)
		g := c.graph(root.Split(1))
		cases = append(cases, goldenStream{
			name:    c.name,
			g:       g,
			batches: stream(g, sparse, root.Split(2)),
			seed:    root.Split(3).Uint64(),
			want:    c.want,
			workBar: true,
		})
	}
	return cases
}

func TestGoldenStreamFingerprint(t *testing.T) {
	cases := goldenStreams(t)
	// The subtests sit under the driver every repair runs on.
	t.Run("sequential", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				var sink trace.MemorySink
				e, err := dynmis.New(c.g, dynmis.Options{Seed: c.seed, Events: &sink})
				if err != nil {
					t.Fatal(err)
				}
				bootstrap := sink.Events[0].Z
				var repair int64
				for bi, b := range c.batches {
					rep, err := e.Apply(b)
					if err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					repair += rep.Messages
				}
				if err := e.Verify(); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%#016x", e.Fingerprint()); got != c.want {
					t.Fatalf("stream fingerprint drift: got %s, want %s", got, c.want)
				}
				if c.workBar && bootstrap*int64(len(c.batches)) < 10*repair {
					t.Fatalf("bootstrap sent %d messages, under 10× the mean repair batch (%d over %d batches)",
						bootstrap, repair, len(c.batches))
				}
			})
		}
	})
}
