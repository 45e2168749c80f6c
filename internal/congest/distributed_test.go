package congest

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// scriptedFleet serves a distributed run from scriptedConns, one per
// shard, so a test can hand the coordinator worker outputs no real worker
// would produce.
type scriptedFleet struct {
	shards int
	out    func(cfg ShardConfig) RoundOutput
}

func (f *scriptedFleet) NumShards() int { return f.shards }

func (f *scriptedFleet) Shard(cfg ShardConfig) (ShardConn, error) {
	return &scriptedConn{cfg: cfg, out: f.out(cfg)}, nil
}

// scriptedConn answers every round with the same output.
type scriptedConn struct {
	cfg ShardConfig
	out RoundOutput
}

func (c *scriptedConn) Send(RoundInput) error      { return nil }
func (c *scriptedConn) Recv() (RoundOutput, error) { return c.out, nil }
func (c *scriptedConn) Outputs() ([]uint64, error) { return make([]uint64, c.cfg.Hi-c.cfg.Lo), nil }
func (c *scriptedConn) Close() error               { return nil }

// TestDistributedRejectsSenderDisorder hands the coordinator a shard whose
// round-0 packets come from senders 1 then 0: the fault draws and every
// worker's pull follow the records' sender order, so the run must fail
// with an error naming the shard, not deliver them in the order given.
// Every vertex reports a halt, so a coordinator that accepted the packets
// would end the run cleanly after round 0.
func TestDistributedRejectsSenderDisorder(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	fleet := &scriptedFleet{shards: 2, out: func(cfg ShardConfig) RoundOutput {
		var out RoundOutput
		for v := cfg.Lo; v < cfg.Hi; v++ {
			out.Halted = append(out.Halted, int32(v))
		}
		if cfg.Index == 0 {
			out.Packets = []Packet{
				{To: BroadcastTo, From: 1, Wire: rawWire(8)},
				{To: BroadcastTo, From: 0, Wire: rawWire(8)},
			}
		}
		return out
	}}
	r := NewRunner(g, func(int) Node { return &priorityMIS{} }, Options{Driver: DriverDistributed, Fleet: fleet})
	_, err := r.Run()
	if err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "sender order") {
		t.Fatalf("run with senders out of order returned %v, want an error naming shard 0 and the sender order", err)
	}
}

// TestDistributedRejectsNonPorter runs a program whose nodes have no
// output word (no ExportState) on two in-process workers. The word is all
// a worker ships back, so NewShardWorker refuses the nodes, and the run
// must fail with an error naming the shard and the node type.
func TestDistributedRejectsNonPorter(t *testing.T) {
	g := ringGraph(8)
	r := NewRunner(g, nil, Options{Driver: DriverDistributed, Fleet: &localFleet{g: g, shards: 2, factory: haltFactory}})
	_, err := r.Run()
	if err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "congest.haltNow") {
		t.Fatalf("run of a non-Porter program returned %v, want an error naming shard 0 and the node type", err)
	}
}

// TestShardWorkerRejectsMalformedInput builds a worker owning [2, 4) of an
// 8-vertex path, which must refuse rows that do not cover its range, and
// sweeps its round 1 with inputs that each break one rule its sweep
// relies on, requiring an error naming the field; the well-formed input
// at every rule's edge must sweep, as must round 2's ascending fates.
func TestShardWorkerRejectsMalformedInput(t *testing.T) {
	edges := make([]graph.Edge, 7)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1}
	}
	g := graph.MustNew(8, edges)
	cfg := ShardConfig{Index: 1, Lo: 2, Hi: 4, N: 8, Seed: 3}
	factory := func(int) Node { return &priorityMIS{} }
	for _, rows := range []graph.Rows{g.Rows(2, 3), g.Rows(1, 3), {Lo: 2}} {
		if _, err := NewShardWorker(cfg, rows, factory); err == nil || !strings.Contains(err.Error(), "do not cover its range [2, 4)") {
			t.Fatalf("rows from %d over %d offsets: NewShardWorker returned %v, want an error naming the range", rows.Lo, len(rows.Off), err)
		}
	}
	w, err := NewShardWorker(cfg, g.Rows(2, 4), factory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sweep(RoundInput{}); err != nil {
		t.Fatal(err)
	}
	wire := rawWire(8)
	recs := []Packet{{To: BroadcastTo, From: 1, Wire: wire}, {To: 2, From: 3, Wire: wire}, {To: BroadcastTo, From: 3, Wire: wire}}
	big := Wire{Kind: 1, Bits: MaxWireBits + 1}
	for _, c := range []struct {
		name  string
		in    RoundInput
		field string
	}{
		{"fate for a foreign vertex", RoundInput{Fates: []VertexFate{{V: 4, Fate: 1}}}, "Fates[0]"},
		{"fates descending", RoundInput{Fates: []VertexFate{{V: 3, Fate: 1}, {V: 2, Fate: 1}}}, "Fates[1]"},
		{"fate repeated", RoundInput{Fates: []VertexFate{{V: 2, Fate: 1}, {V: 2, Fate: 2}}}, "Fates[1]"},
		{"fate up", RoundInput{Fates: []VertexFate{{V: 2, Fate: 1}, {V: 3, Fate: 0}}}, "Fates[1]"},
		{"fate out of range", RoundInput{Fates: []VertexFate{{V: 2, Fate: 7}}}, "Fates[0]"},
		{"senders descending", RoundInput{Records: []Packet{recs[2], recs[0]}}, "Records[1]"},
		{"sender outside the graph", RoundInput{Records: []Packet{{To: BroadcastTo, From: 8, Wire: wire}}}, "Records[0]"},
		{"recipient below the marker", RoundInput{Records: []Packet{{To: BroadcastTo - 1, From: 1, Wire: wire}}}, "Records[0]"},
		{"record above the budget", RoundInput{Records: []Packet{{To: BroadcastTo, From: 1, Wire: big}}}, "Records[0]"},
		{"withheld index past the records", RoundInput{Records: recs, Withheld: []Withheld{{To: 2, Rec: 3}}}, "Withheld[0]"},
		{"withheld recipient outside the shard", RoundInput{Records: recs, Withheld: []Withheld{{To: 4, Rec: 0}}}, "Withheld[0]"},
		{"withheld pairs descending", RoundInput{Records: recs, Withheld: []Withheld{{To: 2, Rec: 1}, {To: 2, Rec: 0}}}, "Withheld[1]"},
		{"withheld pair repeated", RoundInput{Records: recs, Withheld: []Withheld{{To: 3, Rec: 2}, {To: 3, Rec: 2}}}, "Withheld[1]"},
		{"late recipient outside the shard", RoundInput{Late: []Packet{{To: 1, From: 0, Wire: wire}}}, "Late[0]"},
		{"late recipients descending", RoundInput{Late: []Packet{{To: 3, From: 4, Wire: wire}, {To: 2, From: 1, Wire: wire}}}, "Late[1]"},
		{"late above the budget", RoundInput{Late: []Packet{{To: 2, From: 1, Wire: big}}}, "Late[0]"},
	} {
		c.in.Round = 1
		if _, err := w.Sweep(c.in); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s: Sweep returned %v, want an error naming %s", c.name, err, c.field)
		}
	}
	edge := RoundInput{
		Round:    1,
		Records:  recs,
		Withheld: []Withheld{{To: 2, Rec: 0}, {To: 2, Rec: 1}, {To: 3, Rec: 2}},
		Late:     []Packet{{To: 2, From: 1, Wire: Wire{Kind: 1, Bits: MaxWireBits}}, {To: 3, From: 4, Wire: wire}},
	}
	if _, err := w.Sweep(edge); err != nil {
		t.Fatalf("well-formed input at every rule's edge rejected: %v", err)
	}
	if _, err := w.Sweep(RoundInput{Round: 2, Fates: []VertexFate{{V: 2, Fate: 1}, {V: 3, Fate: 2}}}); err != nil {
		t.Fatalf("ascending fates rejected: %v", err)
	}
}
