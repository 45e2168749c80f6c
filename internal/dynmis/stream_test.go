package dynmis_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dynmis"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestStreamRoundTrip(t *testing.T) {
	hdr := &dynmis.StreamHeader{
		Family: "tree", N: 64, Alpha: 2, P: 0.25,
		Seed: 3, StreamSeed: 9, Batches: 2, BatchSize: 3,
		Locality: 0.5, Churn: 0.1,
	}
	batches := []dynmis.Batch{
		{dynmis.InsertEdge(0, 5), dynmis.RemoveEdge(5, 0), dynmis.InsertNode(64)},
		{}, // empty batch is a legal no-op
		{dynmis.RemoveNode(7), dynmis.InsertEdge(2, 0)}, // edge touching vertex 0
	}
	var buf bytes.Buffer
	if err := dynmis.WriteStream(&buf, hdr, batches); err != nil {
		t.Fatal(err)
	}
	gotHdr, gotBatches, err := dynmis.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHdr, hdr) {
		t.Fatalf("header round trip: %+v != %+v", gotHdr, hdr)
	}
	if len(gotBatches) != len(batches) {
		t.Fatalf("batch count %d != %d", len(gotBatches), len(batches))
	}
	for i := range batches {
		if len(batches[i]) == 0 && len(gotBatches[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(gotBatches[i], batches[i]) {
			t.Fatalf("batch %d round trip: %v != %v", i, gotBatches[i], batches[i])
		}
	}
}

func TestStreamHeaderless(t *testing.T) {
	var buf bytes.Buffer
	if err := dynmis.WriteStream(&buf, nil, []dynmis.Batch{{dynmis.InsertEdge(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	hdr, batches, err := dynmis.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != nil || len(batches) != 1 {
		t.Fatalf("hdr=%v batches=%d", hdr, len(batches))
	}
}

func TestStreamRejectsMisplacedHeader(t *testing.T) {
	in := `{"ops":[{"op":"insert-edge","u":1,"v":2}]}
{"header":{"family":"tree","n":4,"seed":1,"stream_seed":1,"batches":1,"batch_size":1,"locality":0,"churn":0}}
`
	if _, _, err := dynmis.ReadStream(strings.NewReader(in)); err == nil {
		t.Fatal("header after data accepted")
	}
}

func TestStreamRejectsUnknownOp(t *testing.T) {
	in := `{"ops":[{"op":"explode","u":1}]}` + "\n"
	if _, _, err := dynmis.ReadStream(strings.NewReader(in)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// FuzzReadStream feeds arbitrary bytes to the update-stream decoder,
// seeded with the round-trip and rejection cases above. Decoding must
// never panic or hang, and whatever it accepts must re-encode to a
// canonical stream: encoding, decoding and encoding again gives the same
// bytes.
func FuzzReadStream(f *testing.F) {
	var buf bytes.Buffer
	hdr := &dynmis.StreamHeader{Family: "tree", N: 64, Alpha: 2, P: 0.25, Seed: 3, StreamSeed: 9, Batches: 2, BatchSize: 3, Locality: 0.5, Churn: 0.1}
	batches := []dynmis.Batch{
		{dynmis.InsertEdge(0, 5), dynmis.RemoveEdge(5, 0), dynmis.InsertNode(64)},
		{},
		{dynmis.RemoveNode(7), dynmis.InsertEdge(2, 0)},
	}
	if err := dynmis.WriteStream(&buf, hdr, batches); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"ops":[{"op":"insert-edge","u":1,"v":2}]}` + "\n"))
	f.Add([]byte(`{"ops":[{"op":"insert-edge","u":1,"v":2}]}
{"header":{"family":"tree","n":4,"seed":1,"stream_seed":1,"batches":1,"batch_size":1,"locality":0,"churn":0}}
`))
	f.Add([]byte(`{"ops":[{"op":"explode","u":1}]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, batches, err := dynmis.ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := dynmis.WriteStream(&first, hdr, batches); err != nil {
			t.Fatal(err)
		}
		hdr2, batches2, err := dynmis.ReadStream(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if err := dynmis.WriteStream(&second, hdr2, batches2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("stream is not canonical after one round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestOpNames(t *testing.T) {
	for _, op := range []dynmis.Op{dynmis.OpInsertEdge, dynmis.OpRemoveEdge, dynmis.OpInsertNode, dynmis.OpRemoveNode} {
		if got := dynmis.OpFromString(op.String()); got != op {
			t.Fatalf("OpFromString(%q) = %v, want %v", op.String(), got, op)
		}
	}
	if dynmis.OpFromString("nope") != 0 {
		t.Fatal("unknown name resolved")
	}
	if s := dynmis.Op(0).String(); !strings.Contains(s, "0") {
		t.Fatalf("zero op renders as %q", s)
	}
}

// TestGeneratorDeterministic: same (graph, config, seed) must yield the
// byte-identical stream; a different stream seed must diverge.
func TestGeneratorDeterministic(t *testing.T) {
	g := gen.RandomTree(128, rng.New(3))
	cfg := dynmis.StreamConfig{Batches: 8, BatchSize: 8, Locality: 0.4, Churn: 0.2}
	a, err := dynmis.UpdateStream(g, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dynmis.UpdateStream(g, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c, err := dynmis.UpdateStream(g, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGeneratorStreamsReplay: every generated stream must replay cleanly
// against the base graph it was generated for, across the knob space.
func TestGeneratorStreamsReplay(t *testing.T) {
	g := gen.RandomTree(96, rng.New(5))
	for _, cfg := range []dynmis.StreamConfig{
		{Batches: 6, BatchSize: 8},
		{Batches: 6, BatchSize: 8, Locality: 1},
		{Batches: 6, BatchSize: 8, Churn: 1},
		{Batches: 6, BatchSize: 8, Locality: 0.7, Churn: 0.3, InsertBias: 0.9, Attach: 4},
		{Batches: 6, BatchSize: 8, InsertBias: 0.1},
	} {
		batches, err := dynmis.UpdateStream(g, cfg, rng.New(11))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		e, err := dynmis.New(g, dynmis.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range batches {
			if _, err := e.Apply(b); err != nil {
				t.Fatalf("%+v batch %d: %v", cfg, bi, err)
			}
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestGeneratorRejectsBadConfig(t *testing.T) {
	g := graph.MustNew(4, nil)
	for _, cfg := range []dynmis.StreamConfig{
		{Batches: 0, BatchSize: 4},
		{Batches: 4, BatchSize: 0},
		{Batches: 4, BatchSize: 4, Locality: 1.5},
		{Batches: 4, BatchSize: 4, Churn: -0.1},
		{Batches: 4, BatchSize: 4, InsertBias: 2},
		{Batches: 4, BatchSize: 4, Attach: -1},
	} {
		if _, err := dynmis.UpdateStream(g, cfg, rng.New(1)); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestGeneratorFromEmptyGraph: churn can grow a graph from nothing.
func TestGeneratorFromEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil)
	batches, err := dynmis.UpdateStream(g, dynmis.StreamConfig{Batches: 4, BatchSize: 4, Churn: 0.5}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := dynmis.New(g, dynmis.Options{Seed: 1})
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
	if e.Graph().AliveCount() == 0 {
		t.Fatal("stream never grew the empty graph")
	}
}
