package ra

import (
	"context"
	"fmt"
	"strings"

	"paramra/internal/engine"
	"paramra/internal/obs"
)

// Limits bounds and configures an exploration. Zero values mean "no limit".
type Limits struct {
	// MaxStates caps the number of distinct states visited.
	MaxStates int
	// StopAtCap ends the search at the first state MaxStates keeps out
	// (see engine.Config.StopAtCap).
	StopAtCap bool
	// Symmetry enables symmetry reduction over the env replicas: states
	// that differ only by a permutation of the (identical) env threads are
	// identified. Sound and complete for safety — env replicas run the
	// same program and messages carry no thread identity — and often
	// exponentially smaller in the replica count.
	Symmetry bool
	// Workers is the number of exploration goroutines (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives periodic engine stats snapshots.
	Progress func(engine.Stats)
	// Trace, when non-nil, is the parent span under which the explorers
	// record their engine run span ("concrete-explore" or "deadlock-scan").
	Trace *obs.Span
	// Metrics, when non-nil, receives the engine's gauges and histograms.
	Metrics *obs.Registry
}

// Result is the outcome of exploring a fixed instance.
type Result struct {
	// Unsafe is true when an `assert false` transition is reachable.
	Unsafe bool
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of transitions examined.
	Transitions int
	// Complete is true when the full (finite) state space was exhausted; if
	// false and Unsafe is false, the verdict is only "no violation found
	// within limits".
	Complete bool
	// Witness is a violating computation (sequence of events from the
	// initial state), non-nil iff Unsafe.
	Witness []Event
	// Engine carries the engine-level counters (dedup hits, peak frontier,
	// wall time, workers).
	Engine engine.Stats
	// Err is the context error when the search was cancelled, else nil.
	Err error
}

// backEdge stores, for each visited state, its predecessor key and the step
// that led to it: enough to reconstruct a witness by chain walking.
type backEdge struct {
	prevKey string
	step    step
}

// witness renders the computation that ends with final, taken in the state
// keyed last, by walking back-edges up to the initial state keyed root.
// Only these steps are ever rendered into Events.
func (inst *Instance) witness(lookup func(string) (backEdge, bool), root, last string, final step) []Event {
	rev := []step{final}
	for k := last; k != root; {
		be, ok := lookup(k)
		if !ok {
			break
		}
		rev = append(rev, be.step)
		k = be.prevKey
	}
	out := make([]Event, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, inst.event(rev[i]))
	}
	return out
}

// ExploreContext searches the instance's RA state space for an `assert
// false` transition on the free-order parallel engine: lim.Workers
// goroutines share a batched frontier and a sharded visited set. Verdicts —
// and, for exhaustive searches, state and transition counts — are the same
// for every worker count. At one worker the whole result is reproducible;
// at more, the first violation discovered wins, so the witness and the
// counts of an UNSAFE search may differ between runs. Cancellation via ctx
// stops the search with Result.Err = ctx.Err() and Complete = false.
//
// Each successor is built in a scratch state and its key probed against the
// visited set before anything is allocated: only an unseen successor is
// cloned and its key interned.
func (inst *Instance) ExploreContext(ctx context.Context, lim Limits) Result {
	init := inst.InitState()
	initKey := inst.stateKey(init, lim.Symmetry)
	visited := engine.NewShardedMap[backEdge]()

	expand := func(sc *scratch, s *State, key string, buf []engine.Succ[*State, backEdge]) []engine.Succ[*State, backEdge] {
		out := buf
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
		return out
	}

	out := engine.Explore(ctx, engine.Config{
		Workers:   lim.Workers,
		MaxStates: lim.MaxStates,
		StopAtCap: lim.StopAtCap,
		Progress:  lim.Progress,
		Trace:     lim.Trace,
		SpanName:  "concrete-explore",
		Metrics:   lim.Metrics,
	}, visited, init, initKey, backEdge{}, newScratch, expand)

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

// FormatWitness renders a violating computation for human consumption.
func FormatWitness(w []Event) string {
	var b strings.Builder
	for i, ev := range w {
		fmt.Fprintf(&b, "%3d. [%s] %s\n", i+1, ev.Name, ev.Op)
	}
	return b.String()
}
