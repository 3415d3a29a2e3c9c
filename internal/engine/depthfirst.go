package engine

import (
	"context"

	"paramra/internal/obs"
)

// Frontier is DepthFirst's stack and visited set as its expand callback
// sees them: the callback reports each successor of the state it expands,
// in enumeration order, with Add or Dup. Every such call is one examined
// successor edge.
type Frontier[S, V any] struct {
	visited map[string]V
	stack   []frame[S]
	cnt     *counters
	max     int
	capped  bool
}

// frame is one admitted, not yet expanded state.
type frame[S any] struct {
	state S
	key   string
}

// Seen reports whether key is visited. An expansion probes a successor's
// key with Seen before building the successor, and reports a visited one
// with Dup: a duplicate successor then costs no allocation.
func (f *Frontier[S, V]) Seen(key []byte) bool {
	_, ok := f.visited[string(key)]
	return ok
}

// Dup reports a successor that Seen found visited.
func (f *Frontier[S, V]) Dup() {
	f.cnt.transitions.Add(1)
	f.cnt.dedupHits.Add(1)
}

// Add reports the successor s under key. A new key is recorded as visited
// with v, and s is pushed unless the state cap keeps it out; a key the cap
// keeps out stays recorded.
func (f *Frontier[S, V]) Add(key string, s S, v V) {
	f.cnt.transitions.Add(1)
	if _, dup := f.visited[key]; dup {
		f.cnt.dedupHits.Add(1)
		return
	}
	f.visited[key] = v
	if !f.cnt.admit(f.max) {
		f.capped = true
		return
	}
	f.stack = append(f.stack, frame[S]{state: s, key: key})
	f.cnt.bumpPeak(int64(len(f.stack)) + 1)
}

// DepthFirst runs a sequential depth-first search from root on the calling
// goroutine, in one slice: it is NewDepthFirst(cfg, visited, root, rootKey,
// rootVal, expand) run to its end under cfg.Trace.
func DepthFirst[S, V any](
	ctx context.Context,
	cfg Config,
	visited map[string]V,
	root S, rootKey string, rootVal V,
	expand func(s S, key string, f *Frontier[S, V]) (haltTag any),
) Outcome {
	d := NewDepthFirst(cfg, visited, root, rootKey, rootVal, expand)
	out, _ := d.Run(ctx, cfg.Trace, nil)
	return out
}

// DepthFirstSearch is a sequential depth-first search that runs in slices.
// It pops the top of its stack, calls expand with it, and pushes the
// successors expand admits through the Frontier in the order they are
// admitted, so the last one admitted is expanded next. expand returns a
// non-nil halt tag when the state has a halting successor (an assert
// violation), which ends the search; the halt counts as one more edge.
//
// visited maps every key the search has seen to its caller value (for
// example a predecessor edge, to rebuild a witness from
// Outcome.HaltParent); the caller passes it in empty and reads it after
// the run. Only the search writes it.
//
// The context is checked before every expansion.
type DepthFirstSearch[S, V any] struct {
	cfg     Config
	f       Frontier[S, V]
	expand  func(s S, key string, f *Frontier[S, V]) (haltTag any)
	mon     *monitor
	started bool
	// out is the outcome once ended.
	out   Outcome
	ended bool
}

// NewDepthFirst prepares a depth-first search from root, recorded as
// visited under rootKey with rootVal. Nothing runs before the first Run.
// The search is a value that a caller can keep in a struct of its own; it
// must not be copied once run. With Progress or Metrics, its ticker runs
// from the first Run until the search ends, so such a search is run to
// its end.
func NewDepthFirst[S, V any](
	cfg Config,
	visited map[string]V,
	root S, rootKey string, rootVal V,
	expand func(s S, key string, f *Frontier[S, V]) (haltTag any),
) DepthFirstSearch[S, V] {
	cnt := newCounters()
	visited[rootKey] = rootVal
	cnt.states.Store(1)
	cnt.bumpPeak(1)
	return DepthFirstSearch[S, V]{
		cfg: cfg,
		f: Frontier[S, V]{
			visited: visited,
			stack:   []frame[S]{{state: root, key: rootKey}},
			cnt:     cnt,
			max:     cfg.MaxStates,
		},
		expand: expand,
	}
}

// States is the number of states admitted so far, the root included.
func (d *DepthFirstSearch[S, V]) States() int64 { return d.f.cnt.states.Load() }

// Run continues the search under a run span that is a child of parent. It
// returns the outcome and true once the search has ended, or, when pause
// (nil = never) reports true before an expansion, the counters so far and
// false: the next Run resumes with that expansion. Once ended, Run returns
// the same outcome again.
func (d *DepthFirstSearch[S, V]) Run(ctx context.Context, parent *obs.Span, pause func() bool) (Outcome, bool) {
	if d.ended {
		return d.out, true
	}
	f, cnt := &d.f, d.f.cnt
	if !d.started {
		d.started = true
		d.mon = startMonitor(d.cfg, cnt)
	}
	cnt.resume()
	span := parent.Child(d.cfg.spanName("depth-first"))

	var out Outcome
	for len(f.stack) > 0 {
		if pause != nil && pause() {
			return suspend(span, cnt, f.capped), false
		}
		if out.Err = ctxErr(ctx); out.Err != nil {
			break
		}
		top := f.stack[len(f.stack)-1]
		f.stack[len(f.stack)-1] = frame[S]{} // do not pin the state
		f.stack = f.stack[:len(f.stack)-1]
		if tag := d.expand(top.state, top.key, f); tag != nil {
			cnt.transitions.Add(1)
			out.HaltTag, out.HaltParent = tag, top.key
			break
		}
	}
	out.Capped = f.capped
	d.out, d.ended, f.stack = finish(span, d.mon, cnt, out), true, nil
	return d.out, true
}
