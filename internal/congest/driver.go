package congest

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

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
// operations per worker per round). The round's vertex fates (scanFates)
// and its delivery happen on the coordinator between sweeps, and delivery
// deposits nothing: it flags the senders for the
// broadcast pull (deliverPull), or gathers the records, walks their fates
// and splits the result by shard for the record pull, and each worker
// builds its own vertices' inboxes inside the next sweep. Every shard
// keeps its set-up range [s·n/W, (s+1)·n/W) for the whole run.
func (r *Runner) runPool() (Result, error) {
	n := r.g.N()
	workers := r.opts.WorkerCount(n)
	st := r.newExecState(workers)
	if n == 0 {
		return r.runLoop(st, func(int) {}, nil)
	}
	timed := r.opts.Events != nil && r.opts.EventTiming

	starts := make([]chan int, workers)
	busy := make([]int64, workers) // each shard's last sweep in nanoseconds, when timed
	done := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for s := 0; s < workers; s++ {
		starts[s] = make(chan int, 1)
		//lint:advisory shard workers are deterministic by construction: shard-ordered merge makes scheduling invisible (see package doc)
		go func(sh *shard, start chan int, busy *int64) {
			defer wg.Done()
			for round := range start {
				if timed {
					t0 := time.Now() //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
					sh.sweep(round, st.pull)
					*busy = int64(time.Since(t0)) //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
				} else {
					sh.sweep(round, st.pull)
				}
				done <- struct{}{}
			}
		}(st.shards[s], starts[s], &busy[s])
	}
	defer func() {
		for _, start := range starts {
			close(start)
		}
		wg.Wait()
	}()

	// The barrier: every worker with live nodes sweeps, the coordinator
	// waits for exactly those. Shards whose frontier has drained get no
	// dispatch at all — their sweep would scan empty words, so skipping
	// the channel round-trip is observationally identical and removes the
	// per-empty-shard coordination cost of the tail rounds, where
	// shattering has halted most of the graph. A skipped shard's worker
	// is idle for the round, so the coordinator may safely clear its
	// timing residue.
	sweep := func(round int) {
		dispatched := 0
		for s, start := range starts {
			if st.shards[s].liveCount == 0 {
				busy[s] = 0
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
	// and the pull it chose (1 = broadcast, 0 = record) on the event bus,
	// ahead of the round-end record.
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
				X:     busy[s],
				Y:     int64(sh.liveCount),
			})
		}
		pulled := int64(0)
		if st.pull {
			pulled = 1
		}
		st.bus.Emit(trace.Event{Type: trace.EvMerge, Round: int32(round), X: int64(merge), Y: pulled})
	}
	return r.runLoop(st, timedSweep, afterRound)
}
