package ra

import (
	"context"
	"sync"

	"paramra/internal/engine"
)

// DeadlockReport describes blocking states of a fixed instance: reachable
// configurations from which no transition is enabled although some thread
// has not finished its program (it is stuck in an assume that can never
// fire — e.g. a barrier waiting for a release that never comes).
type DeadlockReport struct {
	// Deadlocks is the number of reachable states with no enabled
	// transition and at least one unfinished thread.
	Deadlocks int
	// Terminal is the number of reachable states with no enabled
	// transition where every thread is at its CFG exit.
	Terminal int
	// Complete is true when the state space was exhausted.
	Complete bool
	// Example is one deadlocked state rendered for diagnostics ("" if none).
	Example string
	// StuckThreads lists, for the example state, the names of the
	// unfinished threads.
	StuckThreads []string
}

// stuckThreads names the threads of s that have not finished. A thread is
// finished when no edges leave its pc — for compiled programs that is
// exactly the exit node, but choice joins can produce other sink nodes too;
// any out-degree-0 pc counts as finished.
func (inst *Instance) stuckThreads(s *State) []string {
	var stuck []string
	for ti := range s.Threads {
		if len(inst.Threads[ti].CFG.Out[s.Threads[ti].PC]) > 0 {
			stuck = append(stuck, inst.Threads[ti].Name)
		}
	}
	return stuck
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

	expand := func(sc *scratch, s *State, key string, buf []engine.Succ[*State, struct{}]) []engine.Succ[*State, struct{}] {
		out := buf
		sink := true
		inst.eachSucc(s, sc, func(st step) bool {
			sink = false
			// Assert transitions terminate their branch without counting as
			// deadlocks (safety is ExploreContext's job).
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
		Progress:  lim.Progress,
		Trace:     lim.Trace,
		SpanName:  "deadlock-scan",
		Metrics:   lim.Metrics,
	}, visited, init, init.Key(), struct{}{}, newScratch, expand)

	rep.Complete = out.Complete
	return rep
}
