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
	// Symmetry enables symmetry reduction over the env replicas: states
	// that differ only by a permutation of the (identical) env threads are
	// identified. Sound and complete for safety — env replicas run the
	// same program and messages carry no thread identity — and often
	// exponentially smaller in the replica count.
	Symmetry bool
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
	// wall time).
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
func (inst *Instance) witness(visited map[string]backEdge, root, last string, final step) []Event {
	rev := []step{final}
	for k := last; k != root; {
		be, ok := visited[k]
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
// false` transition, depth first on the calling goroutine. The search
// order is fixed, so the whole result, witness and counts included, is
// reproducible. Cancellation via ctx stops the search with Result.Err =
// ctx.Err() and Complete = false. It is Explorer(lim) run in one slice.
func (inst *Instance) ExploreContext(ctx context.Context, lim Limits) Result {
	res, _ := inst.Explorer(lim).Run(ctx, nil)
	return res
}

// Explorer is ExploreContext's search as a resumable value: it keeps its
// stack and visited set between the slices its Run calls make, so the
// search in slices is the search in one.
//
// Each successor is built in a scratch state and its key probed against the
// visited set before anything is allocated: only an unseen successor is
// cloned and its key interned.
type Explorer struct {
	inst    *Instance
	trace   *obs.Span
	visited map[string]backEdge
	initKey string
	dfs     engine.DepthFirstSearch[*State, backEdge]
}

// Explorer prepares the search of ExploreContext under lim. Nothing runs
// before the first Run.
func (inst *Instance) Explorer(lim Limits) *Explorer {
	init := inst.InitState()
	e := &Explorer{inst: inst, trace: lim.Trace, visited: map[string]backEdge{},
		initKey: inst.stateKey(init, lim.Symmetry)}
	sc := new(scratch)
	expand := func(s *State, key string, f *engine.Frontier[*State, backEdge]) (halt any) {
		inst.eachSucc(s, sc, func(st step) bool {
			if st.assert() {
				halt = st
				return false
			}
			inst.keyInto(sc, lim.Symmetry)
			if f.Seen(sc.enc.Bytes()) {
				f.Dup()
				return true
			}
			f.Add(sc.enc.String(), sc.materialize(), backEdge{prevKey: key, step: st})
			return true
		})
		return halt
	}
	e.dfs = engine.NewDepthFirst(engine.Config{
		MaxStates: lim.MaxStates,
		Progress:  lim.Progress,
		SpanName:  "concrete-explore",
		Metrics:   lim.Metrics,
	}, e.visited, init, e.initKey, backEdge{}, expand)
	return e
}

// States is the number of states the search has admitted so far.
func (e *Explorer) States() int { return int(e.dfs.States()) }

// Run continues the search, under a run span that is a child of
// Limits.Trace. It returns the result and true once the search has ended,
// or, when pause (nil = never) reports true before an expansion, the
// counts so far and false: the next Run resumes there.
func (e *Explorer) Run(ctx context.Context, pause func() bool) (Result, bool) {
	out, ended := e.dfs.Run(ctx, e.trace, pause)
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
		res.Witness = e.inst.witness(e.visited, e.initKey, out.HaltParent, final)
	}
	return res, ended
}

// FormatWitness renders a violating computation for human consumption.
func FormatWitness(w []Event) string {
	var b strings.Builder
	for i, ev := range w {
		fmt.Fprintf(&b, "%3d. [%s] %s\n", i+1, ev.Name, ev.Op)
	}
	return b.String()
}
