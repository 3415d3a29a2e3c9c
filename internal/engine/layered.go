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

// LayeredSearch is a breadth-first search that runs in slices. It expands
// each layer's states in admission order. expand admits every successor of
// s through the Admitter as soon as it builds it, and returns a non-nil
// halt tag when s has a halting successor (a violation), which ends the
// search: the first halt in layer order wins.
//
// The context is checked before each layer and after every expansion. An
// expansion that sees ctx cancelled should return; what it admitted stays
// admitted, and the run ends with ctx's error and no halt.
type LayeredSearch[S any] struct {
	cfg    Config
	cnt    *counters
	adm    Admitter[S]
	expand func(s S, adm *Admitter[S]) (haltTag any)
	mon    *monitor
	hLayer *obs.Histogram
	// layer is the layer being expanded, from its state at pos on, at
	// depth; spare is the storage the next layer after it reuses.
	layer, spare []S
	pos, depth   int
	// layerNs is the time the layer's ended slices spent on it.
	layerNs time.Duration
	started bool
	// out is the outcome once ended.
	out   Outcome
	ended bool
}

// NewLayered prepares a breadth-first search from root, admitted here under
// rootKey. Nothing runs before the first Run. The search is a value that a
// caller can keep in a struct of its own; it must not be copied once run.
func NewLayered[S any](
	cfg Config,
	root S, rootKey string,
	expand func(s S, adm *Admitter[S]) (haltTag any),
) LayeredSearch[S] {
	cnt := newCounters()
	cnt.states.Store(1)
	cnt.bumpPeak(1)
	return LayeredSearch[S]{
		cfg:    cfg,
		cnt:    cnt,
		adm:    Admitter[S]{visited: map[string]struct{}{rootKey: {}}, cnt: cnt, max: cfg.MaxStates},
		expand: expand,
		layer:  []S{root},
	}
}

// States is the number of states admitted so far, the root included.
func (l *LayeredSearch[S]) States() int64 { return l.cnt.states.Load() }

// Run continues the search under a run span that is a child of parent. It
// returns the outcome and true once the search has ended, or, when pause
// (nil = never) reports true before an expansion, the counters so far and
// false: the next Run resumes with that expansion. Once ended, Run returns
// the same outcome again.
func (l *LayeredSearch[S]) Run(ctx context.Context, parent *obs.Span, pause func() bool) (Outcome, bool) {
	if l.ended {
		return l.out, true
	}
	if !l.started {
		l.started = true
		if l.cfg.Metrics != nil {
			l.hLayer = l.cfg.Metrics.Histogram("paramra_engine_layer_ns", "wall time per BFS layer (ns)")
		}
		l.mon = startMonitor(l.cfg, l.cnt)
	}
	l.cnt.resume()
	span := parent.Child(l.cfg.spanName("layered"))
	adm := &l.adm

	var curLayer *obs.Span
	var layerStart time.Time
	done := func(haltTag any, err error) (Outcome, bool) {
		curLayer.End()
		l.out = finish(span, l.mon, l.cnt, Outcome{HaltTag: haltTag, Capped: adm.capped, Err: err})
		l.release()
		return l.out, true
	}

	for len(l.layer) > 0 {
		if l.pos == 0 {
			if err := ctxErr(ctx); err != nil {
				return done(nil, err)
			}
			l.cnt.bumpPeak(int64(len(l.layer)))
			adm.next = l.spare[:0]
		}
		for l.pos < len(l.layer) {
			if pause != nil && pause() {
				if curLayer != nil {
					curLayer.SetAttr("states", int(l.cnt.states.Load()))
					curLayer.End()
				}
				if l.hLayer != nil && !layerStart.IsZero() {
					l.layerNs += time.Since(layerStart)
				}
				return suspend(span, l.cnt, adm.capped), false
			}
			if span != nil && curLayer == nil {
				curLayer = span.Child("layer")
				curLayer.SetAttr("depth", l.depth)
				curLayer.SetAttr("size", len(l.layer))
				if l.pos > 0 {
					curLayer.SetAttr("from", l.pos)
				}
			}
			if l.hLayer != nil && layerStart.IsZero() {
				layerStart = time.Now()
			}
			s := l.layer[l.pos]
			l.pos++
			tag := l.expand(s, adm)
			if err := ctxErr(ctx); err != nil {
				return done(nil, err)
			}
			if tag != nil {
				return done(tag, nil)
			}
		}
		if l.hLayer != nil {
			l.hLayer.Observe(int64(l.layerNs + time.Since(layerStart)))
			l.layerNs, layerStart = 0, time.Time{}
		}
		if curLayer != nil {
			curLayer.SetAttr("states", int(l.cnt.states.Load()))
			curLayer.End()
			curLayer = nil
		}
		clear(l.layer) // do not pin the expanded states
		l.spare, l.layer = l.layer, adm.next
		l.pos = 0
		l.depth++
	}
	return done(nil, nil)
}

// Stop ends a search that has not ended, as a caller that will not resume
// it: its monitor emits the counters so far as its last snapshot. It
// returns them.
func (l *LayeredSearch[S]) Stop() Stats {
	if !l.ended {
		l.cnt.pause()
		l.out = Outcome{Stats: l.cnt.snapshot(), Capped: l.adm.capped}
		l.mon.stop(l.out.Stats)
		l.release()
	}
	return l.out.Stats
}

// release marks the search ended and drops its frontier and visited set.
func (l *LayeredSearch[S]) release() {
	l.ended, l.layer, l.spare, l.adm.visited, l.adm.next = true, nil, nil, nil, nil
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
