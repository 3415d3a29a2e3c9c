package engine

import (
	"context"
	"time"
)

// Frontier is DepthFirst's stack and visited set as its expand callback
// sees them: the callback reports each successor of the state it expands,
// in enumeration order, with Add or Dup. Every such call is one examined
// successor edge.
type Frontier[S, V any] struct {
	visited   map[string]V
	stack     []frame[S]
	cnt       *counters
	max       int
	stopAtCap bool
	capped    bool
	// stopped is set when StopAtCap ends the run: the rest of the
	// expansion's successors are then only counted as edges.
	stopped bool
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
	if !f.stopped {
		f.cnt.dedupHits.Add(1)
	}
}

// Add reports the successor s under key. A new key is recorded as visited
// with v, and s is pushed unless the state cap keeps it out; a key the cap
// keeps out stays recorded.
func (f *Frontier[S, V]) Add(key string, s S, v V) {
	f.cnt.transitions.Add(1)
	if f.stopped {
		return
	}
	if _, dup := f.visited[key]; dup {
		f.cnt.dedupHits.Add(1)
		return
	}
	f.visited[key] = v
	if !f.cnt.admit(f.max) {
		f.capped = true
		f.stopped = f.stopAtCap
		return
	}
	f.stack = append(f.stack, frame[S]{state: s, key: key})
	f.cnt.bumpPeak(int64(len(f.stack)) + 1)
}

// DepthFirst runs a sequential depth-first search from root on the calling
// goroutine. It pops the top of its stack, calls expand with it, and pushes
// the successors expand admits through the Frontier in the order they are
// admitted, so the last one admitted is expanded next. expand returns a
// non-nil halt tag when the state has a halting successor (an assert
// violation), which ends the search; the halt counts as one more edge.
//
// visited maps every key the search has seen to its caller value (for
// example a predecessor edge, to rebuild a witness from
// Outcome.HaltParent); the caller passes it in empty and reads it after
// the run. Only this loop writes it.
//
// The context is checked before every expansion.
func DepthFirst[S, V any](
	ctx context.Context,
	cfg Config,
	visited map[string]V,
	root S, rootKey string, rootVal V,
	expand func(s S, key string, f *Frontier[S, V]) (haltTag any),
) Outcome {
	start := time.Now()
	cnt := &counters{}
	visited[rootKey] = rootVal
	cnt.states.Store(1)
	cnt.bumpPeak(1)
	f := &Frontier[S, V]{
		visited:   visited,
		stack:     []frame[S]{{state: root, key: rootKey}},
		cnt:       cnt,
		max:       cfg.MaxStates,
		stopAtCap: cfg.StopAtCap,
	}
	span := cfg.Trace.Child(cfg.spanName("depth-first"))
	mon := startMonitor(cfg, cnt, start)

	var out Outcome
	for len(f.stack) > 0 && !f.stopped {
		if out.Err = ctxErr(ctx); out.Err != nil {
			break
		}
		top := f.stack[len(f.stack)-1]
		f.stack[len(f.stack)-1] = frame[S]{} // do not pin the state
		f.stack = f.stack[:len(f.stack)-1]
		if tag := expand(top.state, top.key, f); tag != nil {
			cnt.transitions.Add(1)
			if !f.stopped {
				out.HaltTag, out.HaltParent = tag, top.key
				break
			}
		}
	}
	out.Stats, out.Capped = cnt.snapshot(start), f.capped
	return finish(span, mon, out)
}
