package dynmis_test

import (
	"fmt"
	"testing"

	"repro/internal/congest"
	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/rng"
)

// Golden regression pin for the dynamic-MIS engine: a fixed (graph, seed,
// stream) triple must reproduce this exact stream fingerprint on BOTH the
// sequential and pool drivers, forever. The fingerprint folds every
// batch's region decomposition and every repair run's deterministic trace
// fingerprint, so it pins the whole pipeline: stream generation, region
// growth, boundary freezing, and the CONGEST repair runs. If a deliberate
// protocol change shifts the value, re-derive and update — such shifts
// must always be deliberate (see golden_test.go at the repo root for the
// idiom).
const goldenStreamFingerprint = "0xa63bebaa842283f0"

func TestGoldenStreamFingerprint(t *testing.T) {
	root := rng.New(424242)
	g := gen.UnionOfTrees(512, 2, root.Split(1))
	cfg := dynmis.StreamConfig{Batches: 24, BatchSize: 10, Locality: 0.25, Churn: 0.15}
	batches, err := dynmis.UpdateStream(g, cfg, root.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		opts dynmis.Options
	}{
		{"sequential", dynmis.Options{Seed: 99}},
		{"pool", dynmis.Options{Seed: 99, Driver: congest.DriverPool, Workers: 4}},
	} {
		t.Run(d.name, func(t *testing.T) {
			e, err := dynmis.New(g, d.opts)
			if err != nil {
				t.Fatal(err)
			}
			for bi, b := range batches {
				if _, err := e.Apply(b); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
			}
			if err := e.Verify(); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%#016x", e.Fingerprint()); got != goldenStreamFingerprint {
				t.Fatalf("stream fingerprint drift on the %s driver: got %s, want %s",
					d.name, got, goldenStreamFingerprint)
			}
		})
	}
}
