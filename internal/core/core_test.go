package core

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestPaperParamsFormulas(t *testing.T) {
	// At astronomically large Δ the paper's Θ goes positive even for α=2.
	p := PaperParams(2, 1<<40, 1)
	if p.NumScales <= 0 {
		t.Fatalf("Θ = %d at Δ=2^40", p.NumScales)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Λ grows like α⁸·log(α log Δ): enormous even for α=2.
	if p.Iterations < 8*4*(32*64+1) {
		t.Fatalf("Λ = %d smaller than the formula's leading term", p.Iterations)
	}
	// ρ halves per scale.
	for k := 2; k <= p.NumScales; k++ {
		if p.Rho(k) > p.Rho(k-1) {
			t.Fatalf("ρ increased between scales %d and %d", k-1, k)
		}
	}
}

func TestPaperParamsDegenerateAtSmallDelta(t *testing.T) {
	// Honest paper constants: at laptop-scale Δ the scale loop is empty.
	p := PaperParams(2, 100, 1)
	if p.NumScales != 0 {
		t.Fatalf("Θ = %d at Δ=100, expected 0", p.NumScales)
	}
	if p.TotalRounds() != 0 {
		t.Fatal("empty schedule should have 0 rounds")
	}
}

func TestPracticalParamsExecuteAtSmallDelta(t *testing.T) {
	p := PracticalParams(2, 60)
	if p.NumScales < 1 {
		t.Fatalf("practical Θ = %d", p.NumScales)
	}
	if p.Iterations < 1 {
		t.Fatalf("practical Λ = %d", p.Iterations)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Thresholds have the paper's shape: highDeg halves (+α), badLimit
	// quarters.
	for k := 1; k <= p.NumScales; k++ {
		if p.HighDeg(k) != 60/(1<<uint(k))+2 {
			t.Fatalf("highDeg(%d) = %d", k, p.HighDeg(k))
		}
		if p.BadLimit(k) != 60/(1<<uint(k+2)) {
			t.Fatalf("badLimit(%d) = %d", k, p.BadLimit(k))
		}
	}
}

func TestParamsValidateRejects(t *testing.T) {
	cases := []*Params{
		{Alpha: 0, Delta: 10},
		{Alpha: 1, Delta: -1},
		{Alpha: 1, Delta: 10, NumScales: -1},
		{Alpha: 1, Delta: 10, NumScales: 2, Iterations: 0},
		{Alpha: 1, Delta: 10, NumScales: 2, Iterations: 1}, // missing slices
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestRunAlg1AllNodesClassified(t *testing.T) {
	g := gen.UnionOfTrees(300, 2, rng.New(1))
	params := PracticalParams(2, g.MaxDegree())
	statuses, _, err := RunAlg1(g, params, congest.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range statuses {
		switch s {
		case base.StatusInMIS, base.StatusDominated, base.StatusBad, base.StatusActive:
		default:
			t.Fatalf("node %d has status %v", v, s)
		}
	}
	// The independent set I must be independent.
	if ok, bad := g.IsIndependent(base.MISSet(statuses)); !ok {
		t.Fatalf("I not independent: edge %v", bad)
	}
	// Every dominated node has an I neighbor.
	for v, s := range statuses {
		if s != base.StatusDominated {
			continue
		}
		found := false
		for _, w := range g.Neighbors(v) {
			if statuses[w] == base.StatusInMIS {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d dominated without I neighbor", v)
		}
	}
}

func TestRunAlg1ScheduleLength(t *testing.T) {
	g := gen.UnionOfTrees(200, 2, rng.New(2))
	params := PracticalParams(2, g.MaxDegree())
	_, res, err := RunAlg1(g, params, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > params.TotalRounds() {
		t.Fatalf("rounds %d exceed schedule %d", res.Rounds, params.TotalRounds())
	}
}

func TestRunAlg1TracesRespectSchedule(t *testing.T) {
	g := gen.UnionOfTrees(250, 3, rng.New(3))
	params := PracticalParams(3, g.MaxDegree())
	_, records, _ := tracedAlg1(t, g, params, congest.Options{Seed: 2})
	sawTrace := false
	for v, tr := range records {
		for i, rec := range tr {
			sawTrace = true
			if rec.Scale != i+1 {
				t.Fatalf("node %d trace %d has scale %d", v, i, rec.Scale)
			}
			if rec.Bound != params.BadLimit(rec.Scale) {
				t.Fatalf("node %d: bound %d, want %d", v, rec.Bound, params.BadLimit(rec.Scale))
			}
			if rec.HighDegNbrs > rec.DegIB {
				t.Fatalf("node %d: more high-degree neighbors (%d) than neighbors (%d)", v, rec.HighDegNbrs, rec.DegIB)
			}
		}
	}
	if !sawTrace {
		t.Fatal("no node produced a trace; scales did not run")
	}
}

func TestScaleRecordsSkipOtherPrograms(t *testing.T) {
	// One stream holds a Métivier run, whose KindJoined/KindRemoved
	// node-state events share the stream's vertices and rounds, then an
	// Algorithm 1 run: only the Algorithm 1 events are scale records.
	g := gen.UnionOfTrees(250, 3, rng.New(6))
	params := PracticalParams(3, g.MaxDegree())
	var both, alone trace.MemorySink
	if _, _, err := metivier.Run(g, congest.Options{Seed: 1, Events: &both}); err != nil {
		t.Fatal(err)
	}
	states := 0
	for _, e := range both.Events {
		if e.Type == trace.EvNodeState {
			states++
		}
	}
	if states == 0 {
		t.Fatal("the Métivier run emitted no node-state events")
	}
	for _, sink := range []*trace.MemorySink{&both, &alone} {
		if _, _, err := RunAlg1(g, params, congest.Options{Seed: 2, Events: sink}); err != nil {
			t.Fatal(err)
		}
	}
	want := ScaleRecords(alone.Events, params, g.N())
	if countRecords(want) == 0 {
		t.Fatal("the Algorithm 1 run emitted no scale records")
	}
	if got := ScaleRecords(both.Events, params, g.N()); !reflect.DeepEqual(got, want) {
		t.Fatalf("with %d Métivier node-state events before it, the stream decodes to %d records, want %d",
			states, countRecords(got), countRecords(want))
	}
}

func TestRunAlg1SurvivorsSatisfyInvariant(t *testing.T) {
	// Nodes still active at a scale's end either satisfied the Invariant
	// or were moved to B: survivors' final trace entries must be within
	// the bound. (This is satisfied by construction — the test pins the
	// mechanism.)
	g := gen.UnionOfTrees(400, 2, rng.New(4))
	params := PracticalParams(2, g.MaxDegree())
	statuses, records, _ := tracedAlg1(t, g, params, congest.Options{Seed: 5})
	for v, s := range statuses {
		if s != base.StatusActive {
			continue
		}
		tr := records[v]
		if len(tr) != params.NumScales {
			t.Fatalf("survivor %d has %d trace entries, want %d", v, len(tr), params.NumScales)
		}
		for _, rec := range tr {
			if rec.HighDegNbrs > rec.Bound {
				t.Fatalf("survivor %d violates Invariant at scale %d: %d > %d",
					v, rec.Scale, rec.HighDegNbrs, rec.Bound)
			}
		}
	}
	// Bad nodes must have violated the bound at their last scale.
	for v, s := range statuses {
		if s != base.StatusBad {
			continue
		}
		tr := records[v]
		if len(tr) == 0 {
			t.Fatalf("bad node %d has no trace", v)
		}
		lastRec := tr[len(tr)-1]
		if lastRec.HighDegNbrs <= lastRec.Bound {
			t.Fatalf("bad node %d within bound: %d <= %d", v, lastRec.HighDegNbrs, lastRec.Bound)
		}
	}
}

func TestRunAlg1RejectsWrongDelta(t *testing.T) {
	g := gen.Star(50)
	params := PracticalParams(1, 3) // graph has Δ=49
	if _, _, err := RunAlg1(g, params, congest.Options{Seed: 1}); err == nil {
		t.Fatal("accepted params built for smaller Δ")
	}
}

func TestRunAlg1ThetaZeroNoop(t *testing.T) {
	g := gen.UnionOfTrees(100, 2, rng.New(5))
	params := PaperParams(2, g.MaxDegree(), 1) // Θ=0 at this scale
	statuses, res, err := RunAlg1(g, params, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Fatalf("no-op ran %d rounds", res.Rounds)
	}
	for v, s := range statuses {
		if s != base.StatusActive {
			t.Fatalf("node %d status %v after no-op", v, s)
		}
	}
}

func TestArbMISValidOnFamilies(t *testing.T) {
	r := rng.New(10)
	cases := []struct {
		name  string
		g     *graph.Graph
		alpha int
	}{
		{"tree", gen.RandomTree(400, r.Split(1)), 1},
		{"star", gen.Star(120), 1},
		{"caterpillar", gen.Caterpillar(30, 6), 1},
		{"grid", gen.Grid(15, 15), 2},
		{"union2", gen.UnionOfTrees(300, 2, r.Split(2)), 2},
		{"union4", gen.UnionOfTrees(300, 4, r.Split(3)), 4},
		{"ktree3", gen.KTree(250, 3, r.Split(4)), 3},
		{"pa3", gen.PreferentialAttachment(300, 3, r.Split(5)), 3},
		{"isolated", graph.MustNew(10, nil), 1},
		{"single", graph.MustNew(1, nil), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			params := PracticalParams(c.alpha, c.g.MaxDegree())
			out, err := ArbMIS(c.g, params, congest.Options{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			// ArbMIS verifies internally; double-check anyway.
			if err := c.g.VerifyMIS(out.MIS); err != nil {
				t.Fatal(err)
			}
			if out.TotalRounds() < 0 || out.MISSize() == 0 && c.g.N() > 0 {
				t.Fatalf("degenerate outcome: rounds=%d |MIS|=%d", out.TotalRounds(), out.MISSize())
			}
		})
	}
}

func TestArbMISManySeeds(t *testing.T) {
	g := gen.UnionOfTrees(250, 3, rng.New(20))
	params := PracticalParams(3, g.MaxDegree())
	for seed := uint64(0); seed < 15; seed++ {
		out, err := ArbMIS(g, params, congest.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.VerifyMIS(out.MIS); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestArbMISWithPaperParams(t *testing.T) {
	// With the paper's literal constants (Θ=0 at this scale) the pipeline
	// still produces a valid MIS — everything falls to the finisher.
	g := gen.UnionOfTrees(200, 2, rng.New(21))
	params := PaperParams(2, g.MaxDegree(), 1)
	out, err := ArbMIS(g, params, congest.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(out.MIS); err != nil {
		t.Fatal(err)
	}
	if out.Stages[0].Result.Rounds != 0 {
		t.Fatal("alg1 should be a no-op under paper params here")
	}
}

func TestArbMISStagesAccounted(t *testing.T) {
	g := gen.UnionOfTrees(300, 2, rng.New(22))
	params := PracticalParams(2, g.MaxDegree())
	out, err := ArbMIS(g, params, congest.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stages) != 4 {
		t.Fatalf("got %d stages", len(out.Stages))
	}
	names := []string{"alg1", "vlo", "vhi", "bad"}
	total := 0
	for i, s := range out.Stages {
		if s.Name != names[i] {
			t.Fatalf("stage %d is %q", i, s.Name)
		}
		total += s.Result.Rounds
	}
	if total != out.TotalRounds() {
		t.Fatalf("TotalRounds %d != sum %d", out.TotalRounds(), total)
	}
}

func TestArbMISDeterministicGivenSeed(t *testing.T) {
	g := gen.UnionOfTrees(200, 2, rng.New(23))
	params := PracticalParams(2, g.MaxDegree())
	a, err := ArbMIS(g, params, congest.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArbMIS(g, params, congest.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.MIS {
		if a.MIS[v] != b.MIS[v] {
			t.Fatalf("node %d differs between identical runs", v)
		}
	}
}

func TestArbMISParallelDriver(t *testing.T) {
	g := gen.UnionOfTrees(150, 2, rng.New(24))
	params := PracticalParams(2, g.MaxDegree())
	seq, err := ArbMIS(g, params, congest.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ArbMIS(g, params, congest.Options{Seed: 4, Driver: congest.DriverPool})
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.MIS {
		if seq.MIS[v] != par.MIS[v] {
			t.Fatalf("node %d differs across drivers", v)
		}
	}

	// Algorithm 1's whole output — every status, every scale record and
	// the engine counters — is pinned on a 2^12-vertex union of 3 trees
	// for two seeds, plus a one-iteration run whose last-scale bad limit
	// of −1 turns every scale-2 survivor bad. Every driver shape must
	// reproduce the pins, with the records rebuilt from the run's events.
	g = gen.UnionOfTrees(1<<12, 3, rng.New(12))
	params = PracticalParams(3, g.MaxDegree())
	forced := PracticalParams(3, g.MaxDegree())
	forced.Iterations = 1
	forced.SetBadLimit(forced.NumScales, -1)
	pins := []struct {
		seed   uint64
		params *Params
		want   uint64
	}{
		{seed: 1, params: params, want: 0xb1310740dfe3ef2d},
		{seed: 2, params: params, want: 0x280bac7cceb4bda8},
		{seed: 1, params: forced, want: 0x8837573720b73c6b},
	}
	drivers := []struct {
		name string
		opts congest.Options
	}{
		{"sequential", congest.Options{}},
		{"pool-2", congest.Options{Driver: congest.DriverPool, Workers: 2}},
		{"pool-3", congest.Options{Driver: congest.DriverPool, Workers: 3}},
		{"pool-n", congest.Options{Driver: congest.DriverPool, Workers: 1 << 30}},
	}
	for _, pin := range pins {
		for _, d := range drivers {
			opts := d.opts
			opts.Seed = pin.seed
			statuses, records, res := tracedAlg1(t, g, pin.params, opts)
			if got := alg1Fingerprint(statuses, records, res); got != pin.want {
				t.Errorf("seed %d %s: fingerprint %#x, want %#x (%d rounds, %d bad, %d records)",
					pin.seed, d.name, got, pin.want, res.Rounds,
					base.Count(statuses, base.StatusBad), countRecords(records))
			}
		}
	}
}

// tracedAlg1 runs Algorithm 1 with its events captured and returns the
// statuses, the scale records ScaleRecords rebuilds from the events and
// the Result.
func tracedAlg1(t *testing.T, g *graph.Graph, params *Params, opts congest.Options) ([]base.Status, [][]ScaleRecord, congest.Result) {
	t.Helper()
	var mem trace.MemorySink
	opts.Events = &mem
	statuses, res, err := RunAlg1(g, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	return statuses, ScaleRecords(mem.Events, params, g.N()), res
}

// alg1Fingerprint hashes everything an Algorithm 1 run yields: every
// status, each vertex's scale records (count first, so records cannot
// shift between vertices unnoticed) and every Result counter.
func alg1Fingerprint(statuses []base.Status, records [][]ScaleRecord, r congest.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, s := range statuses {
		word(int64(s))
	}
	for _, tr := range records {
		word(int64(len(tr)))
		for _, rec := range tr {
			word(int64(rec.Scale))
			word(int64(rec.DegIB))
			word(int64(rec.HighDegNbrs))
			word(int64(rec.Bound))
		}
	}
	for _, x := range []int64{int64(r.Rounds), r.Messages, r.TotalBits, int64(r.MaxMessageBits), r.Dropped, r.Delayed} {
		word(x)
	}
	return h.Sum64()
}

// countRecords is the number of scale records across vertices.
func countRecords(records [][]ScaleRecord) int {
	n := 0
	for _, tr := range records {
		n += len(tr)
	}
	return n
}

func TestArbMISRhoOptOutAblation(t *testing.T) {
	// A1: disabling the ρₖ opt-out must still give a valid MIS (the
	// opt-out matters for the analysis, not correctness).
	g := gen.UnionOfTrees(250, 3, rng.New(25))
	params := PracticalParams(3, g.MaxDegree())
	params.RhoOptOut = false
	out, err := ArbMIS(g, params, congest.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMIS(out.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestBadComponentSizesSorted(t *testing.T) {
	g := gen.UnionOfTrees(500, 3, rng.New(26))
	params := PracticalParams(3, g.MaxDegree())
	out, err := ArbMIS(g, params, congest.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sizes := out.BadComponentSizes
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatal("component sizes not sorted descending")
		}
	}
	badCount := base.Count(out.Alg1, base.StatusBad)
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != badCount {
		t.Fatalf("component sizes sum to %d, |B| = %d", sum, badCount)
	}
}

func TestArbMISForcedBadSet(t *testing.T) {
	// Force the bad test to expel every scale-1 survivor (badLimit = -1):
	// B becomes non-empty, exercising the deterministic bad-set finisher,
	// and the composed MIS must still verify.
	g := gen.UnionOfTrees(400, 3, rng.New(30))
	params := PracticalParams(3, g.MaxDegree())
	params.Iterations = 1
	for k := 1; k <= params.NumScales; k++ {
		params.SetBadLimit(k, -1)
	}
	out, err := ArbMIS(g, params, congest.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.Count(out.Alg1, base.StatusBad) == 0 {
		t.Fatal("forcing produced no bad nodes")
	}
	if len(out.BadComponentSizes) == 0 {
		t.Fatal("no bad components recorded")
	}
	var badStage *Stage
	for i := range out.Stages {
		if out.Stages[i].Name == "bad" {
			badStage = &out.Stages[i]
		}
	}
	if badStage == nil || badStage.Nodes == 0 {
		t.Fatal("bad finisher stage did not run")
	}
	if err := g.VerifyMIS(out.MIS); err != nil {
		t.Fatal(err)
	}
}

func TestArbMISForcedBadManySeeds(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, rng.New(31))
	params := PracticalParams(3, g.MaxDegree())
	params.Iterations = 1
	for k := 1; k <= params.NumScales; k++ {
		params.SetBadLimit(k, -1)
	}
	for seed := uint64(0); seed < 10; seed++ {
		out, err := ArbMIS(g, params, congest.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.VerifyMIS(out.MIS); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
