package dynmis_test

import (
	"testing"

	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestAdversarialClusteredStream is the worst-case-locality stress net:
// with Locality ≈ 1 every update targets the recently-touched
// neighborhood, so consecutive batches hammer one region and the repair
// regions overlap and merge batch after batch — the regime where a
// region-growth bug would compound instead of washing out. The test holds
// the engine to three things under that pressure: the maintained set
// stays a verified MIS after every batch, the repaired regions stay local
// (a regression bound far below n, since clustered updates must not
// cascade into whole-graph repairs), and the stream fingerprint is
// reproducible.
func TestAdversarialClusteredStream(t *testing.T) {
	const (
		n       = 2048
		batches = 40
		// regionCap is the regression bound on any single post-bootstrap
		// repair region. Observed max under this pinned stream is far
		// lower; a cascade regression would blow through n/8 immediately.
		regionCap = n / 8
	)
	g := gen.UnionOfTrees(n, 3, rng.New(41))
	stream, err := dynmis.UpdateStream(g, dynmis.StreamConfig{
		Batches:   batches,
		BatchSize: 24,
		Locality:  0.98,
		Churn:     0.15,
	}, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}

	run := func() (uint64, int, int64, int) {
		e, err := dynmis.New(g, dynmis.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		regionMax, regionSum, repairs := 0, int64(0), 0
		for i, b := range stream {
			rep, err := e.Apply(b)
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if rep.Seeds > 0 {
				repairs++
			}
			if rep.Region > regionMax {
				regionMax = rep.Region
			}
			regionSum += int64(rep.Region)
			checkAgainstRecompute(t, e, "clustered stream")
		}
		return e.Fingerprint(), regionMax, regionSum, repairs
	}

	fp, regionMax, regionSum, repairs := run()
	t.Logf("repairs=%d regionMax=%d regionMean=%.1f (bound %d, n=%d)",
		repairs, regionMax, float64(regionSum)/float64(batches), regionCap, n)
	if repairs < batches/2 {
		t.Fatalf("stream too quiet to stress anything: %d repairs over %d batches", repairs, batches)
	}
	if regionMax > regionCap {
		t.Fatalf("clustered updates cascaded: max repair region %d exceeds bound %d (n=%d)",
			regionMax, regionCap, n)
	}
	// The mean must stay near the batch scale, not the graph scale:
	// overlapping regions may merge, but merged regions must still be
	// bounded by the touched neighborhood.
	if mean := float64(regionSum) / float64(batches); mean > float64(regionCap)/2 {
		t.Fatalf("mean repair region %.1f is graph-scale, not neighborhood-scale (cap %d)", mean, regionCap)
	}

	fp2, _, _, _ := run()
	if fp2 != fp {
		t.Fatalf("clustered stream fingerprint not reproducible: %#x vs %#x", fp, fp2)
	}
}
