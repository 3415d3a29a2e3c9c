package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paramra/internal/obs"
)

// Config tunes an exploration run.
type Config struct {
	// Workers is the number of worker goroutines; <= 0 selects GOMAXPROCS.
	Workers int
	// MaxStates caps the number of admitted states (0 = unlimited). The
	// root counts as the first admitted state.
	MaxStates int
	// StopAtCap ends the run at the first state MaxStates keeps out,
	// instead of expanding the states already admitted (which can still
	// reach a halting successor). A run stopped this way is Capped and, for
	// Layered and for Explore on one worker, reports no halt; a run that is
	// not Capped is exactly the uncapped run.
	StopAtCap bool
	// Progress, when non-nil, is called with a stats snapshot roughly every
	// ProgressEvery (default 250ms) from a dedicated goroutine.
	Progress func(Stats)
	// ProgressEvery is the progress callback interval (0 = 250ms).
	ProgressEvery time.Duration
	// Trace, when non-nil, is the parent span under which the engine
	// records its run span (named SpanName, default "explore"/"layered")
	// and, for Layered, one child span per BFS layer. Layer spans are
	// opened from the sequential layer loop, so their IDs are
	// deterministic at every worker count.
	Trace *obs.Span
	// SpanName overrides the run span's name.
	SpanName string
	// Metrics, when non-nil, receives live engine gauges and histograms
	// (states, queue depth, batch-wait and layer latencies, and, for
	// Explore, visited-shard occupancy). With a nil registry every
	// instrumentation site is a single pointer check.
	Metrics *obs.Registry
}

func (cfg Config) workers() int {
	if cfg.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.Workers
}

func (cfg Config) progressEvery() time.Duration {
	if cfg.ProgressEvery <= 0 {
		return 250 * time.Millisecond
	}
	return cfg.ProgressEvery
}

// Stats aggregates the per-worker counters of a run.
type Stats struct {
	// States is the number of distinct states admitted to the visited set
	// (including the root).
	States int64
	// Transitions is the number of successor edges examined.
	Transitions int64
	// DedupHits counts successors dropped because their canonical key was
	// already in the visited set.
	DedupHits int64
	// PeakFrontier is the maximum number of admitted-but-unexpanded states
	// observed at any point (for Layered, the largest BFS layer).
	PeakFrontier int64
	// Wall is the wall-clock duration of the run.
	Wall time.Duration
	// Workers is the resolved worker count.
	Workers int
}

// Outcome is the engine-level result of a run.
type Outcome struct {
	Stats Stats
	// Complete is true when the search space was exhausted: no halt, no
	// state cap hit, no cancellation.
	Complete bool
	// Halted is true when a halting successor (violation) ended the run.
	Halted bool
	// HaltParent is the canonical key of the state whose expansion produced
	// the halting successor ("" unless Halted).
	HaltParent string
	// HaltTag is the caller payload attached to the halting successor.
	HaltTag any
	// Capped is true when MaxStates pruned the search.
	Capped bool
	// Err is the context error when the run was cancelled, else nil.
	Err error
}

// counters holds the shared atomic counters of one run.
type counters struct {
	states      atomic.Int64
	transitions atomic.Int64
	dedupHits   atomic.Int64
	peak        atomic.Int64
}

// admit increments the state counter unless the cap is already reached; it
// reports whether the state was admitted. CAS keeps the counter exactly at
// the cap even under contention.
func (c *counters) admit(maxStates int) bool {
	for {
		cur := c.states.Load()
		if maxStates > 0 && cur >= int64(maxStates) {
			return false
		}
		if c.states.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (c *counters) bumpPeak(n int64) {
	for {
		cur := c.peak.Load()
		if n <= cur || c.peak.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (c *counters) snapshot(workers int, start time.Time) Stats {
	return Stats{
		States:       c.states.Load(),
		Transitions:  c.transitions.Load(),
		DedupHits:    c.dedupHits.Load(),
		PeakFrontier: c.peak.Load(),
		Wall:         time.Since(start),
		Workers:      workers,
	}
}

// monitor runs the progress ticker and mirrors live counters into the
// metrics registry. It is nil when both are disabled, and every method is
// nil-safe.
type monitor struct {
	progress func(Stats)
	stopTick func()

	// Resolved registry handles (nil when metrics are disabled).
	gStates, gTransitions, gDedup, gPeak *obs.Gauge
	gQueue, gShardMax, gShardsUsed       *obs.Gauge
}

// publish mirrors a stats snapshot into the registry gauges.
func (m *monitor) publish(s Stats, queueLen func() int64, shardStats func() (int64, int64)) {
	m.gStates.Set(s.States)
	m.gTransitions.Set(s.Transitions)
	m.gDedup.Set(s.DedupHits)
	m.gPeak.Set(s.PeakFrontier)
	if queueLen != nil {
		m.gQueue.Set(queueLen())
	}
	if shardStats != nil {
		mx, used := shardStats()
		m.gShardMax.Set(mx)
		m.gShardsUsed.Set(used)
	}
}

// startMonitor launches the observation goroutine when progress or metrics
// are enabled. queueLen and shardStats are optional live probes (sampled at
// ticker rate, never in the hot path); they must be safe for concurrent
// use. Call stop with the run's final Stats: it emits that exact snapshot
// as the last progress callback, so the terminal Progress values always
// equal the returned Outcome.Stats.
func startMonitor(cfg Config, cnt *counters, workers int, start time.Time,
	queueLen func() int64, shardStats func() (int64, int64)) *monitor {
	if cfg.Progress == nil && cfg.Metrics == nil {
		return nil
	}
	m := &monitor{progress: cfg.Progress}
	if r := cfg.Metrics; r != nil {
		m.gStates = r.Gauge("paramra_engine_states", "states admitted to the visited set (current run)")
		m.gTransitions = r.Gauge("paramra_engine_transitions", "successor edges examined (current run)")
		m.gDedup = r.Gauge("paramra_engine_dedup_hits", "successors dropped as already visited (current run)")
		m.gPeak = r.Gauge("paramra_engine_peak_frontier", "largest frontier observed (current run)")
		m.gQueue = r.Gauge("paramra_engine_queue_depth", "shared frontier queue length (current run)")
		m.gShardMax = r.Gauge("paramra_engine_visited_shard_max", "largest visited-set shard (current run)")
		m.gShardsUsed = r.Gauge("paramra_engine_visited_shards_nonempty", "non-empty visited-set shards (current run)")
	}
	m.stopTick = Tick(cfg.progressEvery(), func() {
		s := cnt.snapshot(workers, start)
		m.publish(s, queueLen, shardStats)
		if m.progress != nil {
			m.progress(s)
		}
	})
	return m
}

// Tick calls f every interval from a goroutine of its own until stop is
// called. stop returns once that goroutine has exited, so f never runs
// after it.
func Tick(every time.Duration, f func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// stop halts the ticker and emits final as the terminal snapshot (both to
// the registry and to the progress callback). Nil-safe.
func (m *monitor) stop(final Stats, queueLen func() int64, shardStats func() (int64, int64)) {
	if m == nil {
		return
	}
	m.stopTick()
	m.publish(final, queueLen, shardStats)
	if m.progress != nil {
		m.progress(final)
	}
}

// spanName picks the run span's name.
func (cfg Config) spanName(def string) string {
	if cfg.SpanName != "" {
		return cfg.SpanName
	}
	return def
}

// Succ is one successor produced by an expansion callback.
type Succ[S any, V any] struct {
	// State and Key identify the successor; ignored when Halt or Dedup is
	// set.
	State S
	Key   string
	// Val is stored in the visited map under Key (e.g. a predecessor edge).
	Val V
	// Halt marks a halting successor (assert violation): the search stops,
	// the first reported halt wins, and the remaining workers drain.
	Halt bool
	// Tag is the caller payload surfaced as Outcome.HaltTag when Halt wins.
	Tag any
	// Dedup marks a successor the expansion already proved visited (via
	// ShardedMap.HasBytes on the shared visited set, which is grow-only, so
	// the proof cannot be invalidated). The engine counts it as a
	// transition and a dedup hit without requiring a materialized Key —
	// the byte-probe fast path that keeps duplicate successors
	// allocation-free.
	Dedup bool
}

// item is one admitted frontier entry.
type item[S any] struct {
	state S
	key   string
}

// batchSize is how many frontier items a worker moves between its local
// stack and the shared queue at a time; spillAt is the local-stack size
// that triggers a donation back to the shared queue. 32 was confirmed by
// the paramra_engine_visited_shard_* occupancy histograms and the batch-wait
// histogram: shards stay balanced while a worker amortizes one queue lock
// over a cache-line-friendly run of items.
const (
	batchSize = 32
	spillAt   = 2 * batchSize
)

// Explore runs a free-order parallel search from root. expand is called
// exactly once per admitted state (concurrently from several goroutines)
// and returns its successors; the engine deduplicates them through the
// caller-supplied sharded visited map, which also stores each admitted
// state's Val for later lookup (witness reconstruction). The caller owns
// visited so its expansion callback can pre-filter duplicate successors
// with HasBytes before materializing a key (emitting Succ{Dedup: true} to
// keep the transition and dedup counters exact).
//
// Every worker makes one scratch value with newScratch when it starts and
// hands it to each of its expansions, so no two expansions ever hold a
// scratch at once. buf is the worker's successor buffer to append into:
// the engine recycles it between the worker's expansions, so steady-state
// expansion allocates no slice. expand may ignore buf and return any slice.
//
// The frontier is a shared batched queue with per-worker local stacks:
// workers take and donate work in batches, so queue contention is paid
// once per batch rather than once per state. When idle workers outnumber
// the queued items the take size shrinks to a fair share, so tiny frontiers
// are spread instead of hoarded. The first halting successor wins; after a
// halt (or cancellation) the workers drain and exit.
func Explore[S, V, W any](
	ctx context.Context,
	cfg Config,
	visited *ShardedMap[V],
	root S, rootKey string, rootVal V,
	newScratch func() W,
	expand func(w W, s S, key string, buf []Succ[S, V]) []Succ[S, V],
) Outcome {
	workers := cfg.workers()
	start := time.Now()
	cnt := &counters{}
	visited.TryPut(rootKey, rootVal)
	cnt.states.Store(1)
	cnt.bumpPeak(1)

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		global  = []item[S]{{state: root, key: rootKey}}
		waiting = 0
		stopped atomic.Bool // halt, cancel: workers drain
		capped  atomic.Bool
		halted  bool
		haltKey string
		haltTag any
	)
	pending := atomic.Int64{}
	pending.Store(1)

	// Cancellation wakes idle workers.
	if ctx != nil {
		stop := context.AfterFunc(ctx, func() {
			stopped.Store(true)
			mu.Lock()
			cond.Broadcast()
			mu.Unlock()
		})
		defer stop()
	}

	span := cfg.Trace.Child(cfg.spanName("explore"))
	var hBatchWait *obs.Histogram
	if cfg.Metrics != nil {
		hBatchWait = cfg.Metrics.Histogram("paramra_engine_batch_wait_ns",
			"time a worker waits to refill its batch from the shared queue (ns)")
	}
	queueLen := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return int64(len(global))
	}
	shardStats := func() (int64, int64) {
		mx, used := visited.ShardStats()
		return int64(mx), int64(used)
	}
	mon := startMonitor(cfg, cnt, workers, start, queueLen, shardStats)

	recordHalt := func(parentKey string, tag any) {
		mu.Lock()
		if !halted {
			halted = true
			haltKey = parentKey
			haltTag = tag
		}
		mu.Unlock()
		stopped.Store(true)
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	}

	worker := func() {
		var local []item[S]
		var sbuf []Succ[S, V] // recycled successor buffer handed to expand
		scratch := newScratch()
		for {
			if stopped.Load() {
				return
			}
			if len(local) == 0 {
				var waitStart time.Time
				if hBatchWait != nil {
					waitStart = time.Now()
				}
				mu.Lock()
				for len(global) == 0 && pending.Load() > 0 && !stopped.Load() {
					waiting++
					cond.Wait()
					waiting--
				}
				if stopped.Load() || (len(global) == 0 && pending.Load() == 0) {
					cond.Broadcast()
					mu.Unlock()
					return
				}
				n := len(global)
				if n > batchSize {
					n = batchSize
				}
				// Adaptive batch floor: when peers are starved and the queue
				// is short, take only a fair share so a tiny frontier spreads
				// across workers instead of serializing behind one.
				if waiting > 0 {
					if fair := (len(global) + waiting) / (waiting + 1); fair < n {
						n = fair
						if n < 1 {
							n = 1
						}
					}
				}
				local = append(local, global[len(global)-n:]...)
				global = global[:len(global)-n]
				mu.Unlock()
				if hBatchWait != nil {
					hBatchWait.Observe(int64(time.Since(waitStart)))
				}
				continue
			}

			it := local[len(local)-1]
			local = local[:len(local)-1]

			succs := expand(scratch, it.state, it.key, sbuf[:0])
			cnt.transitions.Add(int64(len(succs)))
			for _, sc := range succs {
				if sc.Halt {
					recordHalt(it.key, sc.Tag)
					break
				}
				if sc.Dedup {
					cnt.dedupHits.Add(1)
					continue
				}
				if !visited.TryPut(sc.Key, sc.Val) {
					cnt.dedupHits.Add(1)
					continue
				}
				if !cnt.admit(cfg.MaxStates) {
					capped.Store(true)
					if cfg.StopAtCap {
						stopped.Store(true)
						mu.Lock()
						cond.Broadcast()
						mu.Unlock()
						break
					}
					continue
				}
				n := pending.Add(1)
				cnt.bumpPeak(n)
				local = append(local, item[S]{state: sc.State, key: sc.Key})
			}
			// Recycle the successor buffer: drop payload references so the
			// engine does not pin dead states, then keep the capacity.
			clear(succs)
			sbuf = succs[:0]

			// Donate work to idle peers, or spill an oversized local stack.
			if len(local) > 0 {
				mu.Lock()
				if waiting > 0 || len(local) > spillAt {
					half := len(local) / 2
					if half == 0 {
						half = 1
					}
					global = append(global, local[:half]...)
					local = append(local[:0:0], local[half:]...)
					cond.Broadcast()
				}
				mu.Unlock()
			}

			if pending.Add(-1) == 0 {
				mu.Lock()
				cond.Broadcast()
				mu.Unlock()
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	// One snapshot serves as both the terminal progress emission and the
	// returned stats, so the last Progress callback always equals
	// Outcome.Stats.
	final := cnt.snapshot(workers, start)
	mon.stop(final, queueLen, shardStats)

	out := Outcome{
		Stats:      final,
		Halted:     halted,
		HaltParent: haltKey,
		HaltTag:    haltTag,
		Capped:     capped.Load(),
	}
	if ctx != nil {
		out.Err = ctx.Err()
	}
	out.Complete = !out.Halted && !out.Capped && out.Err == nil
	if span != nil {
		mx, used := visited.ShardStats()
		span.SetAttr("states", final.States)
		span.SetAttr("transitions", final.Transitions)
		span.SetAttr("dedup_hits", final.DedupHits)
		span.SetAttr("peak_frontier", final.PeakFrontier)
		span.SetAttr("workers", workers)
		span.SetAttr("halted", out.Halted)
		span.SetAttr("capped", out.Capped)
		span.SetAttr("complete", out.Complete)
		span.SetAttr("shard_max", mx)
		span.SetAttr("shards_nonempty", used)
		span.End()
	}
	return out
}
