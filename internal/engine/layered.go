package engine

import (
	"context"
	"time"

	"paramra/internal/obs"
)

// Admitter is handed to Layered's expand callback to admit successor
// states. Admission order is the order in which the expansions admit
// them, so the next layer's contents and order are fixed by the search
// alone.
//
// The visited set is a plain map written only by Layered's loop.
type Admitter[S any] struct {
	visited map[string]struct{}
	cnt     *counters
	max     int
	next    []S
	capped  bool
}

// AddBytes admits the state under key iff the key is new and the state
// cap allows it; it reports whether the state was enqueued for the next
// layer. The duplicate check is allocation-free, and the key is interned
// only when the state is new, so expansions whose successors are mostly
// duplicates pay nothing for them. A key the cap keeps out stays visited.
func (a *Admitter[S]) AddBytes(key []byte, s S) bool {
	if _, dup := a.visited[string(key)]; dup {
		a.cnt.dedupHits.Add(1)
		return false
	}
	a.visited[string(key)] = struct{}{}
	if !a.cnt.admit(a.max) {
		a.capped = true
		return false
	}
	a.next = append(a.next, s)
	return true
}

// AddTransitions adds to the engine-level transition counter (the
// expansion knows how many successor edges it examined).
func (a *Admitter[S]) AddTransitions(n int64) { a.cnt.transitions.Add(n) }

// Layered runs a breadth-first search from root on the calling goroutine.
// It expands each layer's states in admission order. expand admits every
// successor of s through the Admitter as soon as it builds it, and returns
// a non-nil halt tag when s has a halting successor (a violation), which
// ends the search: the first halt in layer order wins.
//
// The context is checked before each layer and after every expansion. An
// expansion that sees ctx cancelled should return; what it admitted stays
// admitted, and the run ends with ctx's error and no halt. With StopAtCap
// the run ends after the expansion in which the cap first keeps a state
// out; the cap is checked before the halt tag.
//
// The root is admitted here under rootKey.
func Layered[S any](
	ctx context.Context,
	cfg Config,
	root S, rootKey string,
	expand func(s S, adm *Admitter[S]) (haltTag any),
) Outcome {
	start := time.Now()
	cnt := &counters{}
	adm := &Admitter[S]{visited: map[string]struct{}{rootKey: {}}, cnt: cnt, max: cfg.MaxStates}
	cnt.states.Store(1)
	cnt.bumpPeak(1)

	span := cfg.Trace.Child(cfg.spanName("layered"))
	var hLayer *obs.Histogram
	if cfg.Metrics != nil {
		hLayer = cfg.Metrics.Histogram("paramra_engine_layer_ns", "wall time per BFS layer (ns)")
	}
	mon := startMonitor(cfg, cnt, start)

	var curLayer *obs.Span
	end := func(haltTag any, err error) Outcome {
		curLayer.End()
		return finish(span, mon, Outcome{Stats: cnt.snapshot(start), HaltTag: haltTag, Capped: adm.capped, Err: err})
	}

	// layer and spare take turns as the layer being expanded and the one
	// being admitted.
	var spare []S
	layer := []S{root}
	for depth := 0; len(layer) > 0; depth++ {
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

		adm.next = spare[:0]
		for _, s := range layer {
			tag := expand(s, adm)
			if err := ctxErr(ctx); err != nil {
				return end(nil, err)
			}
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
		clear(layer) // do not pin the expanded states
		spare, layer = layer, adm.next
	}
	return end(nil, nil)
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
