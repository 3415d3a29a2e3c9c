package ra

import (
	"context"
	"sync"

	"paramra/internal/engine"
)

// scratchPool hands each exploring goroutine a scratch workspace for the
// duration of one expansion; its buffers survive between expansions, so
// steady-state expansion allocates only for successors not seen before. A
// plain free list rather than a sync.Pool: a run outlives many GC cycles,
// each of which would empty a sync.Pool and re-grow the buffers.
type scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

func (sp *scratchPool) get() *scratch {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if n := len(sp.free); n > 0 {
		sc := sp.free[n-1]
		sp.free = sp.free[:n-1]
		return sc
	}
	return new(scratch)
}

func (sp *scratchPool) put(sc *scratch) {
	sc.parent = nil // a parked scratch must not keep an expanded state alive
	sp.mu.Lock()
	sp.free = append(sp.free, sc)
	sp.mu.Unlock()
}

// ExploreContext runs the safety search of Explore on the free-order
// parallel engine: lim.Workers goroutines share a batched frontier and a
// sharded visited set. Verdicts — and, for exhaustive searches, state and
// transition counts — coincide with the sequential explorer for every
// worker count; witness interleavings may differ between runs (the first
// violation discovered wins). Cancellation via ctx stops the search with
// Result.Err = ctx.Err() and Complete = false.
//
// Each successor is built in a scratch state and its key probed against the
// visited set before anything is allocated: only an unseen successor is
// cloned and its key interned.
func (inst *Instance) ExploreContext(ctx context.Context, lim Limits) Result {
	init := inst.InitState()
	initKey := inst.stateKey(init, lim.Symmetry)
	visited := engine.NewShardedMap[backEdge]()
	var pool scratchPool

	expand := func(s *State, key string, depth int, buf []engine.Succ[*State, backEdge]) []engine.Succ[*State, backEdge] {
		out := buf
		sc := pool.get()
		inst.eachSucc(s, sc, func(st step) bool {
			if st.assert() {
				out = append(out, engine.Succ[*State, backEdge]{Halt: true, Tag: st})
				return false
			}
			// The grow-only visited set makes a positive probe stable.
			inst.keyInto(sc, lim.Symmetry)
			if visited.HasBytes(sc.enc.Bytes()) {
				out = append(out, engine.Succ[*State, backEdge]{Dedup: true})
				return true
			}
			out = append(out, engine.Succ[*State, backEdge]{
				State: sc.materialize(),
				Key:   sc.enc.String(),
				Val:   backEdge{prevKey: key, step: st},
			})
			return true
		})
		pool.put(sc)
		return out
	}

	out := engine.Explore(ctx, engine.Config{
		Workers:   lim.Workers,
		MaxStates: lim.MaxStates,
		MaxDepth:  lim.MaxDepth,
		Progress:  lim.Progress,
		Trace:     lim.Trace,
		SpanName:  "concrete-explore",
		Metrics:   lim.Metrics,
	}, visited, init, initKey, backEdge{}, expand)

	res := Result{
		Unsafe:      out.Halted,
		States:      int(out.Stats.States),
		Transitions: int(out.Stats.Transitions),
		Complete:    out.Complete,
		Engine:      out.Stats,
		Err:         out.Err,
	}
	if out.Halted {
		final, _ := out.HaltTag.(step)
		res.Witness = inst.witness(visited.Get, initKey, out.HaltParent, final)
	}
	return res
}

// ExploreParallel is ExploreContext with a background context, keeping the
// historical (lim, workers) signature.
func (inst *Instance) ExploreParallel(lim Limits, workers int) Result {
	lim.Workers = workers
	return inst.ExploreContext(context.Background(), lim)
}

// FindDeadlocksContext classifies the instance's sink states on the
// parallel engine. Counts are deterministic (they are properties of the
// reachable state set); the reported example is canonicalized to the
// deadlocked state with the smallest key, so it too is identical for every
// worker count and schedule. Successors are probed before they are
// materialized, as in ExploreContext.
func (inst *Instance) FindDeadlocksContext(ctx context.Context, lim Limits) DeadlockReport {
	init := inst.InitState()

	var mu sync.Mutex
	rep := DeadlockReport{}
	var exampleKey string

	visited := engine.NewShardedMap[struct{}]()
	var pool scratchPool

	expand := func(s *State, key string, depth int, buf []engine.Succ[*State, struct{}]) []engine.Succ[*State, struct{}] {
		out := buf
		sc := pool.get()
		sink := true
		inst.eachSucc(s, sc, func(st step) bool {
			sink = false
			// Assert transitions terminate their branch without counting as
			// deadlocks (safety is Explore's job).
			if st.assert() {
				return true
			}
			inst.keyInto(sc, false)
			if visited.HasBytes(sc.enc.Bytes()) {
				out = append(out, engine.Succ[*State, struct{}]{Dedup: true})
				return true
			}
			out = append(out, engine.Succ[*State, struct{}]{
				State: sc.materialize(),
				Key:   sc.enc.String(),
			})
			return true
		})
		pool.put(sc)
		if sink {
			stuck := inst.stuckThreads(s)
			mu.Lock()
			if len(stuck) > 0 {
				rep.Deadlocks++
				if exampleKey == "" || key < exampleKey {
					exampleKey = key
					rep.Example = s.String()
					rep.StuckThreads = stuck
				}
			} else {
				rep.Terminal++
			}
			mu.Unlock()
		}
		return out
	}

	out := engine.Explore(ctx, engine.Config{
		Workers:   lim.Workers,
		MaxStates: lim.MaxStates,
		MaxDepth:  lim.MaxDepth,
		Progress:  lim.Progress,
		Trace:     lim.Trace,
		SpanName:  "deadlock-scan",
		Metrics:   lim.Metrics,
	}, visited, init, init.Key(), struct{}{}, expand)

	rep.Complete = out.Complete
	return rep
}
