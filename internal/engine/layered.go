package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"paramra/internal/obs"
)

// Admitter is handed to Layered commit callbacks to enqueue successor
// states. Admission order is the (deterministic) commit order, so the next
// layer's contents and order are identical for every worker count.
//
// The visited set is a plain map with no lock: only the sequential commit
// phase writes it, and the parallel expansion phase only reads it (through
// the seen probe), with Each joining every expansion before the next commit
// runs.
type Admitter[S any] struct {
	visited map[string]struct{}
	cnt     *counters
	max     int
	next    []S
	capped  bool
}

// Add admits the state under key iff the key is new and the state cap
// allows it; it reports whether the state was enqueued for the next layer.
func (a *Admitter[S]) Add(key string, s S) bool {
	if _, dup := a.visited[key]; dup {
		a.cnt.dedupHits.Add(1)
		return false
	}
	a.visited[key] = struct{}{}
	return a.admit(s)
}

// AddBytes is Add with a byte-slice key: the duplicate check is
// allocation-free and the key is interned only when the state is actually
// new. Hot commit loops where most successors are duplicates pay nothing.
func (a *Admitter[S]) AddBytes(key []byte, s S) bool {
	if _, dup := a.visited[string(key)]; dup {
		a.cnt.dedupHits.Add(1)
		return false
	}
	a.visited[string(key)] = struct{}{}
	return a.admit(s)
}

func (a *Admitter[S]) admit(s S) bool {
	if !a.cnt.admit(a.max) {
		a.capped = true
		return false
	}
	a.next = append(a.next, s)
	return true
}

// AddDedup records n duplicate successors that the expansion phase already
// filtered out via the seen probe, keeping the engine's dedup-hit counter
// exact (trace and stats consumers pin these totals).
func (a *Admitter[S]) AddDedup(n int64) {
	if n > 0 {
		a.cnt.dedupHits.Add(n)
	}
}

// States returns the number of states admitted so far (including the root).
func (a *Admitter[S]) States() int { return int(a.cnt.states.Load()) }

// AddTransitions adds to the engine-level transition counter (the commit
// callback knows how many successor edges an expansion examined).
func (a *Admitter[S]) AddTransitions(n int64) { a.cnt.transitions.Add(n) }

// serialBelow is the frontier size under which a layer is expanded by a
// single goroutine regardless of the configured worker count. Tiny layers
// (program prologues, near-fixpoint tails) cost more in goroutine fan-out
// and cache ping-pong than the expansion itself; falling through to serial
// keeps workers>1 from regressing small instances while leaving the
// committed results untouched (commit order never depends on worker count).
const serialBelow = 32

// slotChunk is how many output slots Layered allocates at a time. Growing
// the slots in fixed chunks never copies or reallocates the slots already
// made, where a flat slice grown by append allocates several times the
// peak frontier's worth of slots over a run.
const slotChunk = 64

// Layered runs a deterministic batched-BFS search. Each layer is expanded
// in parallel (expand must not mutate state shared between items), then
// commit is invoked sequentially, in frontier order, with each expansion
// result. commit merges order-sensitive bookkeeping, admits successors via
// the Admitter, and returns a non-nil halt tag to stop the search (the
// first in commit order wins — making verdicts, witnesses and stats
// reproducible across worker counts).
//
// Every worker has one scratch value for the run, made by newScratch before
// the first layer that needs that many workers and handed to each of the
// worker's expansions; no two expansions ever hold a scratch at once.
//
// Each frontier position has one output slot, reused from layer to layer:
// expand fills it in place and commit reads it. A slot still holds what it
// was left with by an earlier layer, so commit should reset it once
// consumed, keeping any capacity worth reusing and dropping references the
// slot would otherwise keep alive.
//
// expand receives a seen probe into the visited set. During a layer's
// parallel expansion no commits run, so the visited set is frozen: the
// concurrent probes are plain map reads, and a true answer is stable.
// Expansions may drop such successors early (reporting them via
// Admitter.AddDedup from commit) instead of materializing keys and states
// that the commit phase would discard anyway. A false answer may be
// superseded by a sibling's commit, so commit must still dedup via Add.
//
// The root must already be "committed" by the caller (its key is admitted
// here, but no commit call is made for it).
func Layered[S, E, W any](
	ctx context.Context,
	cfg Config,
	root S, rootKey string,
	newScratch func() W,
	expand func(w W, s S, seen func([]byte) bool, out *E),
	commit func(index int, s S, out *E, adm *Admitter[S]) (haltTag any),
) Outcome {
	workers := cfg.workers()
	start := time.Now()
	cnt := &counters{}
	adm := &Admitter[S]{visited: map[string]struct{}{rootKey: {}}, cnt: cnt, max: cfg.MaxStates}
	cnt.states.Store(1)
	cnt.bumpPeak(1)

	span := cfg.Trace.Child(cfg.spanName("layered"))
	var hLayer *obs.Histogram
	if cfg.Metrics != nil {
		hLayer = cfg.Metrics.Histogram("paramra_engine_layer_ns",
			"wall time per BFS layer: parallel expansion plus sequential commit (ns)")
	}
	mon := startMonitor(cfg, cnt, workers, start)

	// The layer span is opened from this sequential loop (never from the
	// parallel expansion), so span IDs are deterministic at any -j.
	var curLayer *obs.Span
	end := func(haltTag any, err error) Outcome {
		curLayer.End()
		return finish(span, mon, Outcome{Stats: cnt.snapshot(workers, start), HaltTag: haltTag, Capped: adm.capped, Err: err})
	}

	// seen runs concurrently inside Each, while no commit writes the map.
	seen := func(key []byte) bool {
		_, ok := adm.visited[string(key)]
		return ok
	}

	var (
		scratch []W   // one per worker, grown before the layer that needs it
		slots   [][]E // one per frontier position, reused across layers
	)
	slot := func(i int) *E { return &slots[i/slotChunk][i%slotChunk] }
	layer := []S{root}
	depth := 0
	for len(layer) > 0 {
		if err := ctxErr(ctx); err != nil {
			return end(nil, err)
		}
		cnt.bumpPeak(int64(len(layer)))

		var layerStart time.Time
		if hLayer != nil {
			layerStart = time.Now()
		}
		if span != nil {
			curLayer = span.Child("layer")
			curLayer.SetAttr("depth", depth)
			curLayer.SetAttr("size", len(layer))
		}

		n := min(workers, len(layer))
		if len(layer) < serialBelow {
			n = 1
		}
		for len(scratch) < n {
			scratch = append(scratch, newScratch())
		}
		for len(slots)*slotChunk < len(layer) {
			slots = append(slots, make([]E, slotChunk))
		}
		Each(ctx, n, len(layer), func(w, i int) { expand(scratch[w], layer[i], seen, slot(i)) })
		if err := ctxErr(ctx); err != nil {
			return end(nil, err)
		}

		adm.next = adm.next[:0:0]
		for i, s := range layer {
			tag := commit(i, s, slot(i), adm)
			if adm.capped && cfg.StopAtCap {
				return end(nil, nil)
			}
			if tag != nil {
				return end(tag, nil)
			}
		}
		if hLayer != nil {
			hLayer.Observe(int64(time.Since(layerStart)))
		}
		if curLayer != nil {
			curLayer.SetAttr("states", int(cnt.states.Load()))
			curLayer.End()
			curLayer = nil
		}
		layer = adm.next
		depth++
	}
	return end(nil, nil)
}

// Each calls f(w, i) once for every i in [0, n), on up to workers
// goroutines that take indices from a shared counter, and returns when every
// call has returned. w is the calling goroutine's index in [0, workers), so
// calls with the same w never overlap and f may keep per-worker state in a
// slice indexed by w. Indices not yet started when ctx is cancelled are
// skipped; the caller re-checks ctx before relying on the results.
func Each(ctx context.Context, workers, n int, f func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctxErr(ctx) != nil {
				return
			}
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctxErr(ctx) != nil {
					return
				}
				f(w, i)
			}
		}()
	}
	wg.Wait()
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
