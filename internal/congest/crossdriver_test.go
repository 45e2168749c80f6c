// Cross-driver determinism suite: every MIS program in internal/mis/...
// must produce bit-identical runs — same Result counters, same per-node
// outputs — under the sequential driver, the sharded worker pool (at
// several shard counts, down to one vertex per shard), and the
// distributed driver, with and without fault injection. This is the engine's load-bearing
// guarantee: experiments run on whichever driver is fastest and stay
// reproducible.
package congest_test

import (
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/distrib"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/colevishkin"
	"repro/internal/mis/degreduce"
	"repro/internal/mis/ftmetivier"
	"repro/internal/mis/ghaffari"
	"repro/internal/mis/localmin"
	"repro/internal/mis/luby"
	"repro/internal/mis/metivier"
	"repro/internal/mis/proto"
	"repro/internal/mis/tree"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestMain is the distributed driver's self-exec hook: when an ExecFleet
// spawns this test binary as a shard worker, MaybeWorker serves the run
// and exits before any test runs.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// driverMatrix is every in-process execution strategy a program must
// agree across. pool-n asks for more workers than any graph has vertices,
// so the engine clamps it to n single-vertex shards.
var driverMatrix = []struct {
	name string
	set  func(*congest.Options)
}{
	{"sequential", func(o *congest.Options) { o.Driver = congest.DriverSequential }},
	{"pool-1", func(o *congest.Options) { o.Driver = congest.DriverPool; o.Workers = 1 }},
	{"pool-4", func(o *congest.Options) { o.Driver = congest.DriverPool; o.Workers = 4 }},
	{"pool-8", func(o *congest.Options) { o.Driver = congest.DriverPool; o.Workers = 8 }},
	{"pool-n", func(o *congest.Options) { o.Driver = congest.DriverPool; o.Workers = 1 << 30 }},
}

// statusProgram is a status-returning MIS (or MIS-adjacent) program.
type statusProgram struct {
	name string
	run  func(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error)
}

func statusPrograms() []statusProgram {
	return []statusProgram{
		{"metivier", metivier.Run},
		{"lubyA", luby.RunA},
		{"lubyB", luby.RunB},
		{"ghaffari", ghaffari.Run},
		{"localmin", localmin.Run},
		{"degreduce", func(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
			return degreduce.Run(g, 4, opts)
		}},
		{"colevishkin", func(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
			return colevishkin.Run(g, g.BFSForest(), opts)
		}},
		{"doublesend", runDoubleSend},
	}
}

// doubleSend is Métivier's MIS with every broadcast sent twice: two
// messages per edge per direction per round, twice the CONGEST budget the
// engine reserves outbox capacity for. Every driver must still agree on it
// — the reservation is a sizing bound, not a limit, and sends beyond it
// take the ordinary append path.
type doubleSend struct {
	status   base.Status
	priority uint64
}

func (nd *doubleSend) ExportState() uint64 { return uint64(nd.status) }

func (nd *doubleSend) send(ctx *congest.Context, w congest.Wire) {
	ctx.Broadcast(w)
	ctx.Broadcast(w)
}

func (nd *doubleSend) compete(ctx *congest.Context) {
	nd.priority = ctx.RNG().Uint64()
	nd.send(ctx, proto.Priority{Value: nd.priority, Competitive: true}.Wire())
}

func (nd *doubleSend) Init(ctx *congest.Context) { nd.compete(ctx) }

func (nd *doubleSend) Round(ctx *congest.Context, inbox []congest.Message) {
	switch ctx.Round() % 3 {
	case 1: // priorities arrived (each twice): local maxima join
		for _, m := range inbox {
			p, ok := proto.AsPriority(m.Wire)
			if ok && (p.Value > nd.priority || (p.Value == nd.priority && m.From > ctx.ID())) {
				return
			}
		}
		nd.status = base.StatusInMIS
		nd.send(ctx, proto.Flag{Kind: proto.KindJoined}.Wire())
		ctx.Halt()
	case 2: // neighbors of joiners retire
		for _, m := range inbox {
			if f, ok := proto.AsFlag(m.Wire); ok && f.Kind == proto.KindJoined {
				nd.status = base.StatusDominated
				nd.send(ctx, proto.Flag{Kind: proto.KindRemoved}.Wire())
				ctx.Halt()
				return
			}
		}
	case 0:
		nd.compete(ctx)
	}
}

func runDoubleSend(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error) {
	r := congest.NewRunner(g, func(int) congest.Node { return &doubleSend{status: base.StatusActive} }, opts)
	res, err := r.Run()
	if err != nil {
		return nil, res, err
	}
	return base.Statuses(r, g.N()), res, nil
}

// distProgram maps a matrix program label to the cross-process Program
// spec the distributed driver's workers construct their nodes from. ok is
// false for test-only programs, which worker processes cannot build; the
// whitebox outbox tests run doubleSend's traffic shape through the
// distributed coordinator with in-process workers instead.
func distProgram(label string, g *graph.Graph) (prog distrib.Program, ok bool) {
	switch name := strings.SplitN(label, "/", 2)[0]; name {
	case "lubyA":
		return distrib.Program{Algorithm: "luby-a"}, true
	case "lubyB":
		return distrib.Program{Algorithm: "luby-b"}, true
	case "degreduce":
		return distrib.Program{Algorithm: "degreduce", Args: []uint64{4}}, true
	case "colevishkin":
		return distrib.Program{Algorithm: "colevishkin", Args: distrib.ColeVishkinArgs(g.BFSForest())}, true
	case "doublesend":
		return distrib.Program{}, false
	default:
		return distrib.Program{Algorithm: name}, true
	}
}

// runMatrix executes one program under every driver — including the
// distributed driver over a unix-socket worker fleet, for programs the
// worker registry knows — and fails the test on the first divergence in
// error, Result, or statuses.
func runMatrix(t *testing.T, label string, g *graph.Graph, baseOpts congest.Options,
	run func(g *graph.Graph, opts congest.Options) ([]base.Status, congest.Result, error)) {
	t.Helper()
	var refName string
	var refSt []base.Status
	var refRes congest.Result
	var refErr error
	check := func(name string, st []base.Status, res congest.Result, err error) {
		t.Helper()
		if refName == "" {
			refName, refSt, refRes, refErr = name, st, res, err
			return
		}
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%s: %s err %v, %s err %v", label, name, err, refName, refErr)
		}
		if res != refRes {
			t.Fatalf("%s: %s Result %+v != %s Result %+v", label, name, res, refName, refRes)
		}
		for v := range st {
			if st[v] != refSt[v] {
				t.Fatalf("%s: node %d status %v under %s, %v under %s",
					label, v, st[v], name, refSt[v], refName)
			}
		}
	}
	for _, d := range driverMatrix {
		opts := baseOpts
		d.set(&opts)
		st, res, err := run(g, opts)
		check(d.name, st, res, err)
	}
	prog, ok := distProgram(label, g)
	if !ok {
		return
	}
	fleet, err := distrib.NewExecFleet(g, prog, 4)
	if err != nil {
		t.Fatalf("%s: distributed fleet: %v", label, err)
	}
	defer fleet.Close()
	opts := baseOpts
	opts.Driver = congest.DriverDistributed
	opts.Fleet = fleet
	st, res, err := run(g, opts)
	check("distributed", st, res, err)
}

// TestCrossDriverAllPrograms sweeps every status-returning MIS program
// across the full driver matrix on a moderate bounded-arboricity graph,
// clean and with fault injection.
func TestCrossDriverAllPrograms(t *testing.T) {
	n := 300
	forest := gen.RandomTree(n, rng.New(11))
	union := gen.UnionOfTrees(n, 2, rng.New(12))
	for _, prog := range statusPrograms() {
		g := union
		if prog.name == "colevishkin" {
			g = forest // Cole-Vishkin is a forest algorithm
		}
		runMatrix(t, prog.name, g, congest.Options{Seed: 77}, prog.run)
		if prog.name != "colevishkin" && prog.name != "localmin" {
			// Randomized programs must also agree under message drops,
			// where a stalled run (ErrMaxRounds) is acceptable as long as
			// every driver stalls identically.
			opts := congest.Options{Seed: 77, Faults: faultsim.BernoulliDrop{P: 0.05}, MaxRounds: 500}
			runMatrix(t, prog.name+"/drop", g, opts, prog.run)
		}
	}
}

// faultPlans builds one instance of every faultsim plan kind (plus a
// composition of all of them) sized for an n-vertex graph g, for the
// cross-driver matrix: faulted executions must be bit-identical across
// drivers for every plan, exactly like clean ones.
func faultPlans(g *graph.Graph) []struct {
	name string
	plan faultsim.Plan
} {
	n := g.N()
	var pairs [][2]int
	for v := 0; v < n && len(pairs) < 24; v += 7 {
		for _, w := range g.Neighbors(v) {
			pairs = append(pairs, [2]int{v, int(w)})
		}
	}
	side := make([]bool, n)
	for v := range side {
		side[v] = v%2 == 0
	}
	bernoulli := faultsim.BernoulliDrop{P: 0.08}
	burst := faultsim.NewLinkBurst(faultsim.BothWays(pairs), 2, 9)
	partition := faultsim.NewPartition(side, 4, 12)
	crashStop := faultsim.NewCrashStop(faultsim.SpreadCrashes(n, n/16, 2, 5))
	crashRestart := faultsim.NewCrashRestart(map[int]faultsim.Window{
		1:     {Down: 2, Up: 8},
		n / 2: {Down: 3, Up: 0},
		n - 1: {Down: 5, Up: 20},
	})
	delay := faultsim.DelayK{K: 3}
	return []struct {
		name string
		plan faultsim.Plan
	}{
		{"bernoulli", bernoulli},
		{"linkburst", burst},
		{"partition", partition},
		{"crashstop", crashStop},
		{"crashrestart", crashRestart},
		{"delayk", delay},
		{"composed", faultsim.Compose(bernoulli, burst, partition, crashStop, crashRestart, delay)},
	}
}

// TestCrossDriverFaultPlans sweeps every fault plan kind across the full
// driver matrix for a priority program and its fault-tolerant variant. A
// stalled run (ErrMaxRounds) is acceptable as long as every driver stalls
// with identical counters and statuses.
func TestCrossDriverFaultPlans(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	progs := []statusProgram{
		{"metivier", metivier.Run},
		{"ftmetivier", ftmetivier.Run},
	}
	for _, fp := range faultPlans(g) {
		for _, prog := range progs {
			opts := congest.Options{Seed: 33, Faults: fp.plan, MaxRounds: 400}
			runMatrix(t, prog.name+"/"+fp.name, g, opts, prog.run)
		}
	}
}

// statusFingerprint hashes a status vector for golden pinning.
func statusFingerprint(st []base.Status) uint64 {
	h := fnv.New64a()
	for _, s := range st {
		h.Write([]byte{byte(s)})
	}
	return h.Sum64()
}

// TestGoldenFaultedExecution pins one faulted run exactly: fixed seed,
// fixed CrashRestart + BernoulliDrop plan, n = 256. Every driver must
// reproduce the same round count, the same Result counters, and the same
// per-node output, and those values must not drift across PRs — fault
// injection is part of the engine's determinism contract, so any change
// here must be deliberate (re-derive and update, as with golden_test.go).
func TestGoldenFaultedExecution(t *testing.T) {
	const (
		wantRounds      = 204
		wantMIS         = 94
		wantCrashed     = 3
		wantFingerprint = uint64(0x6608fb1ead99f649)
	)
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))
	plan := faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.1},
		faultsim.NewCrashRestart(map[int]faultsim.Window{
			5:   {Down: 2, Up: 14},
			64:  {Down: 4, Up: 0},
			128: {Down: 6, Up: 0},
			200: {Down: 3, Up: 0},
		}),
	)
	drivers := append([]struct {
		name string
		set  func(*congest.Options)
	}{}, driverMatrix...)
	fleet, err := distrib.NewExecFleet(g, distrib.Program{Algorithm: "ftmetivier"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	drivers = append(drivers, struct {
		name string
		set  func(*congest.Options)
	}{"distributed", func(o *congest.Options) { o.Driver = congest.DriverDistributed; o.Fleet = fleet }})
	for _, d := range drivers {
		opts := congest.Options{Seed: 1234, Faults: plan, MaxRounds: 400}
		d.set(&opts)
		st, res, err := ftmetivier.Run(g, opts)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if res.Rounds != wantRounds {
			t.Fatalf("%s: rounds = %d, want %d", d.name, res.Rounds, wantRounds)
		}
		crashed := faultsim.CrashedAt(plan, res.Rounds+1, n)
		rep, err := faultsim.Check(g, base.MISSet(st), crashed)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Safe() {
			t.Fatalf("%s: independence violated: %v", d.name, rep.Violations)
		}
		if rep.InMIS != wantMIS || rep.Crashed != wantCrashed {
			t.Fatalf("%s: |MIS| = %d crashed = %d, want %d/%d", d.name, rep.InMIS, rep.Crashed, wantMIS, wantCrashed)
		}
		if fp := statusFingerprint(st); fp != wantFingerprint {
			t.Fatalf("%s: status fingerprint %#x, want %#x", d.name, fp, wantFingerprint)
		}
	}
}

// TestGoldenMulticoreFingerprint pins one clean traced run at n = 4096
// under GOMAXPROCS = 8: the deterministic-event fingerprint, round count,
// and message totals must be identical across the sequential driver, the
// pool at 1, 4, 8 and n workers, and the distributed driver — and must not
// drift across PRs. The graph is deliberately lopsided (a path over the
// low half, isolated vertices above), so after round 1 the live set sits
// in the low shards and the high shards' workers get no dispatch; the test
// therefore proves that skipped shards and pull inboxes built by
// concurrent workers reproduce the exact event stream of the sequential
// sweep. It runs under make race, where the worker barrier and the
// concurrent pull sweeps run with the race detector watching.
func TestGoldenMulticoreFingerprint(t *testing.T) {
	const (
		wantRounds      = 7
		wantMessages    = 8764
		wantFingerprint = uint64(0x12754683fe80ac53)
	)
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	n := 4096
	edges := make([]graph.Edge, 0, n/2)
	for v := 0; v+1 < n/2; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	g := graph.MustNew(n, edges)
	drivers := append([]struct {
		name string
		set  func(*congest.Options)
	}{}, driverMatrix...)
	fleet, err := distrib.NewExecFleet(g, distrib.Program{Algorithm: "metivier"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	drivers = append(drivers, struct {
		name string
		set  func(*congest.Options)
	}{"distributed", func(o *congest.Options) { o.Driver = congest.DriverDistributed; o.Fleet = fleet }})
	for _, d := range drivers {
		rec := trace.NewRecorder()
		opts := congest.Options{Seed: 424242, Events: rec}
		d.set(&opts)
		st, res, err := metivier.Run(g, opts)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if res.Rounds != wantRounds || res.Messages != wantMessages {
			t.Fatalf("%s: rounds=%d messages=%d, want %d/%d",
				d.name, res.Rounds, res.Messages, wantRounds, wantMessages)
		}
		if err := base.VerifyStatuses(g, st); err != nil {
			t.Fatalf("%s: invalid MIS: %v", d.name, err)
		}
		if fp := rec.Fingerprint(); fp != wantFingerprint {
			t.Fatalf("%s: deterministic fingerprint %#x, want %#x", d.name, fp, wantFingerprint)
		}
	}
}

// TestCrossDriverGoldenLarge is the n = 2^12 golden check from the issue:
// sequential vs the worker pool must produce identical Result (Rounds,
// Messages, TotalBits, Dropped) and identical MIS output for metivier,
// luby, ghaffari, and the tree algorithm, including a message-drop case.
func TestCrossDriverGoldenLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large cross-driver sweep skipped in -short mode")
	}
	n := 1 << 12
	g := gen.UnionOfTrees(n, 2, rng.New(5))
	pool := func(o *congest.Options) { o.Driver = congest.DriverPool; o.Workers = 4 }

	progs := []statusProgram{
		{"metivier", metivier.Run},
		{"lubyA", luby.RunA},
		{"lubyB", luby.RunB},
		{"ghaffari", ghaffari.Run},
	}
	for _, prog := range progs {
		for _, drop := range []float64{0, 0.02} {
			seqOpts := congest.Options{Seed: 9, MaxRounds: 2000}
			if drop > 0 {
				seqOpts.Faults = faultsim.BernoulliDrop{P: drop}
			}
			poolOpts := seqOpts
			pool(&poolOpts)
			seqSt, seqRes, seqErr := prog.run(g, seqOpts)
			poolSt, poolRes, poolErr := prog.run(g, poolOpts)
			if (seqErr == nil) != (poolErr == nil) {
				t.Fatalf("%s drop=%v: sequential err %v, pool err %v", prog.name, drop, seqErr, poolErr)
			}
			if seqRes != poolRes {
				t.Fatalf("%s drop=%v: sequential %+v != pool %+v", prog.name, drop, seqRes, poolRes)
			}
			for v := range seqSt {
				if seqSt[v] != poolSt[v] {
					t.Fatalf("%s drop=%v: node %d differs across drivers", prog.name, drop, v)
				}
			}
			if drop == 0 && seqErr == nil {
				if err := base.VerifyStatuses(g, seqSt); err != nil {
					t.Fatalf("%s: invalid MIS: %v", prog.name, err)
				}
			}
		}
	}

	// The tree algorithm (ArbMIS pipeline at α = 1) on a forest input.
	f := gen.RandomTree(n, rng.New(6))
	params := tree.PracticalParams(f.MaxDegree())
	seqOut, err := tree.Run(f, params, congest.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	poolOut, err := tree.Run(f, params, congest.Options{Seed: 9, Driver: congest.DriverPool, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seqOut.TotalRounds() != poolOut.TotalRounds() ||
		seqOut.TotalMessages() != poolOut.TotalMessages() ||
		seqOut.MaxMessageBits() != poolOut.MaxMessageBits() {
		t.Fatalf("tree: counters differ: seq rounds=%d msgs=%d bits=%d, pool rounds=%d msgs=%d bits=%d",
			seqOut.TotalRounds(), seqOut.TotalMessages(), seqOut.MaxMessageBits(),
			poolOut.TotalRounds(), poolOut.TotalMessages(), poolOut.MaxMessageBits())
	}
	for v := range seqOut.MIS {
		if seqOut.MIS[v] != poolOut.MIS[v] {
			t.Fatalf("tree: node %d MIS membership differs across drivers", v)
		}
	}
}
