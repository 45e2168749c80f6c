package congest

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

// PoolRoundMetrics is one round of driver-efficiency telemetry from the
// sharded worker-pool driver, as delivered to Options.PoolObserver.
// The slices are indexed by shard and reused between rounds: observers
// must copy anything they keep.
type PoolRoundMetrics struct {
	// Round is the round number (0 = Init).
	Round int
	// Live is the number of still-live nodes per shard after the round —
	// the live-node histogram that reveals shard imbalance as nodes halt.
	Live []int
	// Busy is each shard's sweep (node execution) time for the round. A
	// shard the empty-shard skip never dispatched reports zero.
	Busy []time.Duration
	// Merge is the coordinator's delivery time for the round: fault
	// draws, accounting, and the shard-order outbox merge.
	Merge time.Duration
}

// WorkerCount resolves Options.Workers for an n-vertex run: Workers when
// positive, else GOMAXPROCS, then clamped to at most n so no shard is
// empty at the start. For n = 0 it returns 1 — the value is then only a
// nominal shard count, since a zero-vertex run sweeps nothing (runPool
// short-circuits before starting any workers) and every driver handles it
// identically. The result is always at least 1.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runPool executes the program on the sharded worker pool: workerCount
// long-lived workers each own one contiguous vertex shard and sweep its
// live nodes every round, with a channel barrier per round (two channel
// operations per *worker* per round, against two per *vertex* per round
// for the legacy driver). Delivery happens on the coordinator between
// rounds — except that on a reliable network, with no more workers than
// CPUs, the merge splits by destination range (deliverReliable) and ships
// its count and scatter phases back to these same workers when volume is
// high. Between rounds
// the coordinator may also re-cut the shard ranges by live weight
// (rebalance.go); workers always sweep st.shards[s], whose range the
// rebalancer updates in place.
func (r *Runner) runPool() (Result, error) {
	n := r.g.N()
	workers := r.opts.WorkerCount(n)
	st := r.newExecState(workers)
	if n == 0 {
		return r.runLoop(st, func(int) {}, nil)
	}
	timed := r.opts.timingWanted()

	starts := make([]chan int, workers)
	done := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for s := 0; s < workers; s++ {
		starts[s] = make(chan int, 1)
		//lint:advisory shard workers are deterministic by construction: shard-ordered merge makes scheduling invisible (see package doc)
		go func(sh *shard, start chan int) {
			defer wg.Done()
			for cmd := range start {
				if cmd < 0 {
					st.mergePhase(sh, cmd)
					done <- struct{}{}
					continue
				}
				if timed {
					t0 := time.Now() //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
					r.sweepShard(st, sh, cmd)
					sh.busy = int64(time.Since(t0)) //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
				} else {
					r.sweepShard(st, sh, cmd)
				}
				done <- struct{}{}
			}
		}(st.shards[s], starts[s])
	}
	defer func() {
		for _, start := range starts {
			close(start)
		}
		wg.Wait()
	}()

	// Parallel merge hook for deliverReliable: one merge phase per shard,
	// dispatched to every worker (an empty-frontier shard still owns its
	// destination inbox range) and awaited before delivery continues.
	// deliver runs strictly between sweep barriers, so the done channel is
	// empty when this fires. Fault draws need the single global send
	// order, so faulted runs merge on the coordinator. Every worker reads
	// every outbox record, so the split only pays when each worker has a
	// CPU of its own: with more workers than CPUs the redundant record
	// scans queue for the same cores, and the coordinator merges alone
	// (EXPERIMENTS.md E19). phases counts the dispatches for the round's
	// merge event.
	phases := 0
	if workers > 1 && workers <= runtime.NumCPU() && st.plan == nil {
		st.parallel = func(cmd int) {
			phases++
			for _, start := range starts {
				start <- cmd
			}
			for range starts {
				<-done
			}
		}
	}

	// The barrier: every worker with live nodes sweeps, the coordinator
	// waits for exactly those. Shards whose frontier has drained get no
	// dispatch at all — their sweep would scan empty words, so skipping
	// the channel round-trip is observationally identical and removes the
	// per-empty-shard coordination cost of the tail rounds, where
	// shattering has halted most of the graph. A skipped shard's worker
	// is idle for the round, so the coordinator may safely clear its
	// timing residue. Before dispatch, while every worker is parked, the
	// coordinator re-cuts skewed shard layouts by live weight.
	sweep := func(round int) {
		if round > 0 && !r.opts.NoRebalance {
			st.maybeRebalance(round)
		}
		dispatched := 0
		for s, start := range starts {
			if st.shards[s].liveCount == 0 {
				st.shards[s].busy = 0
				continue
			}
			start <- round
			dispatched++
		}
		for i := 0; i < dispatched; i++ {
			<-done
		}
	}

	if !timed {
		return r.runLoop(st, sweep, nil)
	}

	// Timing plumbing: wrap deliver timing around the coordinator's merge
	// and publish one shard-busy event per shard plus the merge duration
	// on the event bus, ahead of the round-end record. The deprecated
	// PoolObserver adapter reassembles PoolRoundMetrics from exactly these
	// events, so its callers see the same per-round numbers as before.
	var mergeStart time.Time
	timedSweep := func(round int) {
		sweep(round)
		mergeStart = time.Now() //lint:advisory merge timings are advisory-only events, excluded from fingerprints
	}
	afterRound := func(round int) {
		merge := time.Since(mergeStart) //lint:advisory merge timings are advisory-only events, excluded from fingerprints
		for s, sh := range st.shards {
			st.bus.Emit(trace.Event{
				Type:  trace.EvShardBusy,
				Round: int32(round),
				V:     int32(s),
				X:     sh.busy,
				Y:     int64(sh.liveCount),
			})
		}
		st.bus.Emit(trace.Event{Type: trace.EvMerge, Round: int32(round), X: int64(merge), Y: int64(phases)})
		phases = 0
	}
	return r.runLoop(st, timedSweep, afterRound)
}

// runGoroutinePerVertex is the legacy parallel driver: one long-lived
// goroutine per vertex with a channel round-trip per vertex per round. It
// is kept as the baseline the pool driver is benchmarked against
// (BENCH_congest.json, BenchmarkEngineDrivers); its scheduler overhead
// dominates at large n. Each vertex is its own single-vertex shard, so the
// shared deliver sees the same shard-ordered outboxes as the other
// drivers.
func (r *Runner) runGoroutinePerVertex() (Result, error) {
	n := r.g.N()
	st := r.newExecState(n)
	if n == 0 {
		return r.runLoop(st, func(int) {}, nil)
	}
	starts := make([]chan int, n)
	done := make(chan struct{}, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		starts[v] = make(chan int, 1)
		//lint:advisory legacy per-vertex workers are deterministic by construction: shard-ordered merge makes scheduling invisible
		go func(sh *shard, start chan int) {
			defer wg.Done()
			for round := range start {
				r.sweepShard(st, sh, round)
				done <- struct{}{}
			}
		}(st.shards[v], starts[v])
	}
	defer func() {
		for _, start := range starts {
			close(start)
		}
		wg.Wait()
	}()

	sweep := func(round int) {
		dispatched := 0
		for v := 0; v < n; v++ {
			if st.shards[v].liveCount == 0 {
				continue
			}
			starts[v] <- round
			dispatched++
		}
		for i := 0; i < dispatched; i++ {
			<-done
		}
	}
	return r.runLoop(st, sweep, nil)
}

// DriverStats aggregates PoolRoundMetrics across a run (or several runs)
// into the driver-efficiency summary cmd/bench -parallel reports. Plug
// its Observe method into Options.PoolObserver. Not safe for concurrent
// use; the engine only calls the observer from the coordinator.
type DriverStats struct {
	// Rounds is the number of observed rounds (Init included).
	Rounds int
	// Workers is the widest shard count observed.
	Workers int
	// Busy is total worker time spent sweeping nodes, summed over shards.
	Busy time.Duration
	// Critical is the per-round maximum shard sweep time, summed over
	// rounds — the parallel critical path of the sweeps.
	Critical time.Duration
	// DispatchedCritical is the per-round critical path weighted by the
	// number of shards actually dispatched that round: Σ over rounds of
	// dispatched × max busy. In tail rounds the empty-shard skip
	// dispatches only the shards with live or just-halted nodes, so this —
	// not Workers × Critical — is the capacity the sweeps could have used.
	DispatchedCritical time.Duration
	// Merge is total coordinator time spent merging outboxes into
	// inboxes (delivery, fault draws, accounting).
	Merge time.Duration
	// LiveMax and LiveMin sum each round's largest and smallest per-shard
	// live count; their ratio exposes shard imbalance as nodes halt.
	LiveMax, LiveMin int64
}

// Observe folds one round of metrics into the aggregate. A shard counts as
// dispatched for the round when it reported sweep time or still holds live
// nodes — the frontier never regrows, so a shard with neither was skipped
// by the coordinator.
func (d *DriverStats) Observe(m PoolRoundMetrics) {
	d.Rounds++
	if len(m.Busy) > d.Workers {
		d.Workers = len(m.Busy)
	}
	var max time.Duration
	dispatched := 0
	for i, b := range m.Busy {
		d.Busy += b
		if b > max {
			max = b
		}
		if b > 0 || (i < len(m.Live) && m.Live[i] > 0) {
			dispatched++
		}
	}
	d.Critical += max
	d.DispatchedCritical += time.Duration(dispatched) * max
	if len(m.Live) > 0 {
		lo, hi := m.Live[0], m.Live[0]
		for _, l := range m.Live[1:] {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		d.LiveMax += int64(hi)
		d.LiveMin += int64(lo)
	}
	d.Merge += m.Merge
}

// Efficiency returns sweep-parallelism efficiency in (0, 1]: total busy
// time divided by the dispatched-weighted critical path. 1 means the
// dispatched shards were perfectly balanced every round. Weighting by
// dispatched shards (not the widest-ever worker count) keeps tail rounds
// honest: when the empty-shard skip dispatches one straggler shard, that
// round's denominator is one shard's time, not the full pool's — a
// single-shard round is "efficient" by definition, and imbalance across
// the pool shows up in LiveMax/LiveMin instead. It returns NaN-free 0
// when nothing was observed.
func (d *DriverStats) Efficiency() float64 {
	if d.Workers == 0 || d.DispatchedCritical == 0 {
		return 0
	}
	return float64(d.Busy) / float64(d.DispatchedCritical)
}

// String renders the aggregate for cmd/bench.
func (d *DriverStats) String() string {
	if d.Rounds == 0 {
		return "pool driver: no rounds observed"
	}
	return fmt.Sprintf(
		"pool driver: %d rounds, %d workers, busy %v (critical path %v, efficiency %.2f), merge %v",
		d.Rounds, d.Workers, d.Busy.Round(time.Microsecond),
		d.Critical.Round(time.Microsecond), d.Efficiency(),
		d.Merge.Round(time.Microsecond))
}
