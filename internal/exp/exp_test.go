package exp

import (
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/trace"
)

func TestAllDriversRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are not short")
	}
	cfg := QuickConfig()
	for _, d := range All() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			rep, err := d.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != d.ID {
				t.Fatalf("report ID %q for driver %q", rep.ID, d.ID)
			}
			if rep.Table == nil || rep.Table.NumRows() == 0 {
				t.Fatal("empty table")
			}
			out := rep.String()
			if !strings.Contains(out, rep.ID) {
				t.Fatal("rendered report missing ID")
			}
		})
	}
}

func TestDriverIDsUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		if seen[d.ID] {
			t.Fatalf("duplicate driver %s", d.ID)
		}
		seen[d.ID] = true
		if d.Run == nil || d.Name == "" {
			t.Fatalf("driver %s incomplete", d.ID)
		}
	}
	if len(seen) != 26 {
		t.Fatalf("expected 26 drivers, got %d", len(seen))
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.seeds() != 1 {
		t.Fatalf("zero config seeds = %d", c.seeds())
	}
	if DefaultConfig().Seeds < 2 {
		t.Fatal("default config too small")
	}
	if !QuickConfig().Quick {
		t.Fatal("quick config not quick")
	}
}

func TestOptsDeterministic(t *testing.T) {
	c := QuickConfig()
	a, b := c.opts(7, 3), c.opts(7, 3)
	if a.Seed != b.Seed {
		t.Fatal("opts not deterministic")
	}
	if c.opts(7, 4).Seed == a.Seed || c.opts(8, 3).Seed == a.Seed {
		t.Fatal("labels/replications share seeds")
	}
}

func TestOptsWirePoolDriver(t *testing.T) {
	c := Config{Seed: 1, Driver: congest.DriverPool, Workers: 3}
	o := c.opts(1, 0)
	if o.Driver != congest.DriverPool || o.Workers != 3 {
		t.Fatalf("pool plumbing lost: %+v", o)
	}
	if seq := (Config{Seed: 1}).opts(1, 0); seq.Driver != congest.DriverSequential {
		t.Fatalf("zero config runs on %v, want sequential", seq.Driver)
	}
}

// TestRunEngineBench covers the BENCH_congest.json producer: both
// in-process drivers measured on identical work, with identical counters.
func TestRunEngineBench(t *testing.T) {
	rep, err := RunEngineBench(256, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Drivers) != 2 {
		t.Fatalf("expected 2 drivers, got %d", len(rep.Drivers))
	}
	names := map[string]bool{}
	for _, d := range rep.Drivers {
		names[d.Driver] = true
		if d.Rounds != rep.Drivers[0].Rounds || d.Messages != rep.Drivers[0].Messages {
			t.Fatalf("driver %s counters diverge: %+v", d.Driver, d)
		}
		if d.WallNS <= 0 || d.RoundsPerSec <= 0 || d.MessagesPerSec <= 0 || d.NSPerRound <= 0 {
			t.Fatalf("driver %s has non-positive throughput: %+v", d.Driver, d)
		}
	}
	for _, want := range []string{"sequential", "pool"} {
		if !names[want] {
			t.Fatalf("driver %q missing from report", want)
		}
	}
	if rep.N != 256 || rep.Seed != 3 || rep.Algorithm == "" || rep.GoMaxProcs < 1 {
		t.Fatalf("report metadata wrong: %+v", rep)
	}
}

// TestRunTraceBench covers the BENCH_trace.json producer: all three
// tracing modes measured on identical work, with identical counters and
// identical fingerprints across the traced modes.
func TestRunTraceBench(t *testing.T) {
	rep, err := RunTraceBench(256, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 256 || rep.Seed != 3 || rep.Algorithm != "metivier" || rep.Driver != "pool" {
		t.Fatalf("report metadata wrong: %+v", rep)
	}
	if len(rep.Modes) != 3 {
		t.Fatalf("expected 3 modes, got %d", len(rep.Modes))
	}
	off, ring, jsonl := rep.Modes[0], rep.Modes[1], rep.Modes[2]
	if off.Mode != "off" || ring.Mode != "ring" || jsonl.Mode != "jsonl" {
		t.Fatalf("mode order wrong: %+v", rep.Modes)
	}
	if off.Events != 0 || off.Fingerprint != "" || off.OverheadPct != 0 {
		t.Fatalf("off baseline carries trace data: %+v", off)
	}
	for _, m := range rep.Modes {
		if m.WallNS <= 0 || m.Rounds != off.Rounds || m.Messages != off.Messages {
			t.Fatalf("mode %s: bad entry %+v", m.Mode, m)
		}
	}
	if ring.Events == 0 || ring.Events != jsonl.Events || ring.Fingerprint != jsonl.Fingerprint {
		t.Fatalf("traced modes disagree: ring %+v, jsonl %+v", ring, jsonl)
	}
}

func TestOptsWireEvents(t *testing.T) {
	mem := &trace.MemorySink{}
	c := Config{Seed: 1, Events: mem}
	if o := c.opts(1, 0); o.Events != trace.Sink(mem) {
		t.Fatal("events sink not plumbed through opts")
	}
	if o := (Config{Seed: 1}).opts(1, 0); o.Events != nil {
		t.Fatal("sink appeared from nowhere")
	}
}

// TestRunFaultBench covers the BENCH_faults.json producer: every scenario
// swept with zero safety violations and sane aggregates.
func TestRunFaultBench(t *testing.T) {
	rep, err := RunFaultBench(128, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 128 || rep.Seed != 3 || rep.Seeds != 2 || rep.Algorithm != "ftmetivier" {
		t.Fatalf("report metadata wrong: %+v", rep)
	}
	scenarios := map[string]bool{}
	for _, e := range rep.Entries {
		scenarios[e.Scenario] = true
		if e.Violations != 0 {
			t.Fatalf("%s x=%v: %d violations in a successful report", e.Scenario, e.Intensity, e.Violations)
		}
		if e.Stalled < e.Runs && (e.MeanRounds <= 0 || e.Coverage < 0 || e.Coverage > 1) {
			t.Fatalf("%s x=%v: bad aggregates %+v", e.Scenario, e.Intensity, e)
		}
	}
	for _, sc := range faultScenarios() {
		if !scenarios[sc.name] {
			t.Fatalf("scenario %q missing from report", sc.name)
		}
	}
	// The p=0 drop point is a clean run: full coverage, nothing dropped.
	clean := rep.Entries[0]
	if clean.Scenario != "drop" || clean.Intensity != 0 || clean.Coverage != 1 || clean.Dropped != 0 {
		t.Fatalf("clean baseline entry wrong: %+v", clean)
	}
}

func TestSqrtLogShapeMonotone(t *testing.T) {
	prev := 0.0
	for _, n := range []int{16, 256, 65536, 1 << 20} {
		s := sqrtLogShape(n)
		if s <= prev {
			t.Fatalf("shape not increasing at n=%d", n)
		}
		prev = s
	}
}

func TestStressParamsTighter(t *testing.T) {
	p := stressParams(3, 100)
	if p.Iterations != 1 {
		t.Fatalf("stress iterations = %d", p.Iterations)
	}
	base := 100 / 8 // practical badLimit at scale 1: Δ/2³
	if p.BadLimit(1) != base/4 {
		t.Fatalf("stress badLimit(1) = %d, want %d", p.BadLimit(1), base/4)
	}
}
