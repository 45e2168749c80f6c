package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/distrib"
	"repro/internal/graph"
)

// tinySizes keeps the workload tests fast.
var tinySizes = sizes{arbN: 512, poolN: 512, dynN: 256, distN: 128, streamBatches: 16}

// tinyDigests pins each workload's digest on defaultSeed at tinySizes.
var tinyDigests = map[string]uint64{
	"arbmis":        0xc9346114d399d929,
	"metivier-pool": 0x2ff4bc2040718725,
	"dynmis-stream": 0x4ae20e2144285789,
	"dist-faulted":  0x6ed1a49105053d50,
}

func TestMain(m *testing.M) {
	distrib.MaybeWorker() // the dist-faulted fleet re-executes this binary
	os.Exit(m.Run())
}

// TestMinOps checks the percentile rule: the untraced run's timed ops,
// all but warm-up op 0, leave minBeyond samples beyond p90, and one
// fewer op would not.
func TestMinOps(t *testing.T) {
	if got := samplesBeyond(minOps-1, 90); got < minBeyond {
		t.Errorf("%d timed ops leave %d samples beyond p90, want %d", minOps-1, got, minBeyond)
	}
	if got := samplesBeyond(minOps-2, 90); got >= minBeyond {
		t.Errorf("minOps = %d is not minimal: %d timed ops already leave %d beyond p90", minOps, minOps-2, got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{0, 10}, 0.9); got != 9 {
		t.Errorf("quantile(0.9) = %v, want 9", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty = %v, want 0", got)
	}
	if got := topMean([]float64{8, 1, 2, 6, 3, 4, 5, 7}, 0.25); got != 7.5 {
		t.Errorf("topMean(0.25) = %v, want 7.5", got)
	}
	if got := topMean([]float64{2, 9}, 0.25); got != 9 {
		t.Errorf("topMean of 2 samples = %v, want the largest, 9", got)
	}
}

// inputFingerprint folds a set-up instance's generated input: the graph's
// edges and, for the stream workload, every update.
func inputFingerprint(t *testing.T, inst instance) uint64 {
	t.Helper()
	var g *graph.Graph
	d := newDigest()
	switch w := inst.(type) {
	case *arbMIS:
		g = w.g
	case *poolRun:
		g = w.g
	case *distRun:
		g = w.g
	case *streamRun:
		g = w.g
		for _, b := range w.stream {
			for _, u := range b {
				d = d.word(uint64(u.Op)).word(uint64(u.U)).word(uint64(u.V))
			}
			d = d.word(^uint64(0))
		}
	default:
		t.Fatalf("unknown instance %T", inst)
	}
	for _, e := range g.Edges() {
		d = d.word(uint64(e.U)).word(uint64(e.V))
	}
	return uint64(d)
}

// setUp builds one workload at tinySizes and closes it with the test.
func setUp(t *testing.T, w workload, seed uint64) instance {
	t.Helper()
	inst, err := w.setup(seed, tinySizes, newAcc())
	if err != nil {
		t.Fatalf("%s setup: %v", w.name, err)
	}
	t.Cleanup(func() {
		if err := inst.close(); err != nil {
			t.Errorf("%s close: %v", w.name, err)
		}
	})
	return inst
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := inputFingerprint(t, setUp(t, w, defaultSeed))
			b := inputFingerprint(t, setUp(t, w, defaultSeed))
			c := inputFingerprint(t, setUp(t, w, defaultSeed+1))
			if a != b {
				t.Errorf("same seed, different inputs: %#x vs %#x", a, b)
			}
			if a == c {
				t.Errorf("seeds %d and %d give the same input %#x", defaultSeed, defaultSeed+1, a)
			}
		})
	}
}

// runDigest sets w up and runs the ops its digest covers.
func runDigest(t *testing.T, w workload) uint64 {
	t.Helper()
	inst := setUp(t, w, defaultSeed)
	l := newLoop(inst)
	for i := 0; i < inst.digestLen(); i++ {
		l.one(i, nil)
	}
	if l.failed > 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", w.name, l.failed, l.attempted, l.errs)
	}
	return inst.digest()
}

func TestDigestStable(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runDigest(t, w), runDigest(t, w)
			if a != b {
				t.Fatalf("digest not stable: %#x vs %#x", a, b)
			}
			if want, ok := tinyDigests[w.name]; !ok || a != want {
				t.Errorf("digest %#x, pinned %#x", a, want)
			}
		})
	}
}

func TestTracedOpsReportLayers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst := setUp(t, w, defaultSeed)
			layers := newAcc()
			tr := newTracer()
			spans := &spanLog{}
			l := newLoop(inst)
			for i := 0; i < 4; i++ {
				tr.reset()
				if _, ok := l.one(i, &opTrace{op: i, next: 1, t: tr, spans: spans, layers: layers}); !ok {
					t.Fatalf("op %d failed: %v", i, l.errs)
				}
			}
			if len(layers.samples)+len(layers.den) == 0 {
				t.Error("traced ops recorded no per-layer samples")
			}
			if len(spans.spans) == 0 && w.name != "dynmis-stream" {
				t.Error("traced ops recorded no spans")
			}
		})
	}
}

func TestAdvisoryEventsResolve(t *testing.T) {
	if m := lookupAdvisory().missing(); len(m) > 0 {
		t.Errorf("advisory events not found by wire name: %v", m)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "arbmis", "--trace", "2"},
		{"--workload", "arbmis", "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() > 0 {
			t.Errorf("run(%q) = %d with stdout %q; want a non-zero exit and no output", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the tables the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.what, len(c.got), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %s %s %s", c.what, i, g, d.name, d.unit, d.better)
			}
		}
	}
}
