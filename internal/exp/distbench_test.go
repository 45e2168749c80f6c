package exp

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/distrib"
)

// TestMain lets this test binary double as the misnode worker: E21 and
// RunDistBench spawn self-exec fleets, which re-run the binary with the
// worker socket in the environment.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

func TestRunDistBenchValidation(t *testing.T) {
	if _, err := RunDistBench(1, []int{2}, 7, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := RunDistBench(64, nil, 7, 1); err == nil {
		t.Fatal("empty shard set accepted")
	}
	if _, err := RunDistBench(64, []int{2, 0}, 7, 1); err == nil {
		t.Fatal("zero shard count accepted")
	}
}

func TestRunDistBench(t *testing.T) {
	rep, err := RunDistBench(96, []int{1, 3}, 99, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("expected 2 entries, got %d", len(rep.Entries))
	}
	if rep.SequentialFingerprint == "" || rep.SequentialFingerprintFault == "" {
		t.Fatalf("missing sequential fingerprints: %+v", rep)
	}
	for _, e := range rep.Entries {
		// RunDistBench hard-errors on divergence, so reaching here means
		// the match flags must all be set and fingerprints echoed.
		if !e.CleanMatch || !e.FaultedMatch {
			t.Fatalf("shards=%d: match flags not set: %+v", e.Shards, e)
		}
		if e.FingerprintClean != rep.SequentialFingerprint {
			t.Fatalf("shards=%d: clean fingerprint %s != sequential %s",
				e.Shards, e.FingerprintClean, rep.SequentialFingerprint)
		}
		if e.FingerprintFaulted != rep.SequentialFingerprintFault {
			t.Fatalf("shards=%d: faulted fingerprint %s != sequential %s",
				e.Shards, e.FingerprintFaulted, rep.SequentialFingerprintFault)
		}
		if e.Transport != "unix" || e.Socket == "" {
			t.Fatalf("shards=%d: topology not resolved: transport=%q socket=%q",
				e.Shards, e.Transport, e.Socket)
		}
		// The socket path is random per fleet; BENCH_dist.json leaves it
		// out so regenerating the artefact does not churn it.
		if b, err := json.Marshal(e); err != nil || strings.Contains(string(b), e.Socket) {
			t.Fatalf("shards=%d: socket path in the JSON entry (err %v): %s", e.Shards, err, b)
		}
		if e.Rounds <= 0 || e.Messages <= 0 || e.WallNS <= 0 {
			t.Fatalf("shards=%d: empty counters: %+v", e.Shards, e)
		}
		if e.FrameBytes <= 0 || e.MeanRTTNanos <= 0 {
			t.Fatalf("shards=%d: frame metrics missing: %+v", e.Shards, e)
		}
	}
}

func TestE21DistributedDriverQuick(t *testing.T) {
	rep, err := E21DistributedDriver(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "E21" || rep.Table.NumRows() != 2 {
		t.Fatalf("unexpected report shape: id=%s rows=%d", rep.ID, rep.Table.NumRows())
	}
	if !strings.Contains(rep.Table.String(), "match") {
		t.Fatalf("table missing match verdicts:\n%s", rep.Table.String())
	}
}
