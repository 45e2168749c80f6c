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
	if len(seen) != 21 {
		t.Fatalf("expected 21 drivers, got %d", len(seen))
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
