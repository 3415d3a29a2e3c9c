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
// the seen probe), with parMap joining every expansion before the next
// commit runs.
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

// Layered runs a deterministic batched-BFS search. Each layer is expanded
// in parallel (expand must not mutate state shared between items), then
// commit is invoked sequentially, in frontier order, with each expansion
// result. commit merges order-sensitive bookkeeping, admits successors via
// the Admitter, and returns a non-nil halt tag to stop the search (the
// first in commit order wins — making verdicts, witnesses and stats
// reproducible across worker counts).
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
func Layered[S any, E any](
	ctx context.Context,
	cfg Config,
	root S, rootKey string,
	expand func(s S, seen func([]byte) bool) E,
	commit func(index int, s S, e E, adm *Admitter[S]) (haltTag any),
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
	mon := startMonitor(cfg, cnt, workers, start, nil, nil)

	// The layer span is opened from this sequential loop (never from the
	// parallel expansion), so span IDs are deterministic at any -j.
	var curLayer *obs.Span
	finish := func(haltTag any, err error) Outcome {
		final := cnt.snapshot(workers, start)
		mon.stop(final, nil, nil)
		out := Outcome{
			Stats:   final,
			Halted:  haltTag != nil,
			HaltTag: haltTag,
			Capped:  adm.capped,
			Err:     err,
		}
		out.Complete = !out.Halted && !out.Capped && out.Err == nil
		curLayer.End()
		if span != nil {
			span.SetAttr("states", final.States)
			span.SetAttr("transitions", final.Transitions)
			span.SetAttr("dedup_hits", final.DedupHits)
			span.SetAttr("peak_frontier", final.PeakFrontier)
			span.SetAttr("workers", workers)
			span.SetAttr("halted", out.Halted)
			span.SetAttr("capped", out.Capped)
			span.SetAttr("complete", out.Complete)
			span.End()
		}
		return out
	}

	// seen runs concurrently inside parMap, while no commit writes the map.
	seen := func(key []byte) bool {
		_, ok := adm.visited[string(key)]
		return ok
	}

	layer := []S{root}
	depth := 0
	for len(layer) > 0 {
		if err := ctxErr(ctx); err != nil {
			return finish(nil, err)
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

		w := workers
		if len(layer) < serialBelow {
			w = 1
		}
		exps := parMap(ctx, w, layer, func(s S) E { return expand(s, seen) })
		if err := ctxErr(ctx); err != nil {
			return finish(nil, err)
		}

		adm.next = adm.next[:0:0]
		for i, e := range exps {
			if tag := commit(i, layer[i], e, adm); tag != nil {
				return finish(tag, nil)
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
	return finish(nil, nil)
}

// parMap evaluates f over every item of layer using up to `workers`
// goroutines, load-balanced by an atomic index. Items started after the
// context fires are skipped (their results are the zero value); the caller
// re-checks the context before using the results.
func parMap[S any, E any](ctx context.Context, workers int, layer []S, f func(S) E) []E {
	out := make([]E, len(layer))
	if len(layer) == 0 {
		return out
	}
	if workers > len(layer) {
		workers = len(layer)
	}
	if workers <= 1 {
		for i, s := range layer {
			if ctxErr(ctx) != nil {
				return out
			}
			out[i] = f(s)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(layer) || ctxErr(ctx) != nil {
					return
				}
				out[i] = f(layer[i])
			}
		}()
	}
	wg.Wait()
	return out
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
