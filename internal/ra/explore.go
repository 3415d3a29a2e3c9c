package ra

import (
	"errors"
	"fmt"
	"strings"

	"paramra/internal/engine"
	"paramra/internal/obs"
)

// Limits bounds and configures an exploration. Zero values mean "no limit".
type Limits struct {
	// MaxStates caps the number of distinct states visited.
	MaxStates int
	// MaxDepth caps the length of explored computations.
	MaxDepth int
	// Symmetry enables symmetry reduction over the env replicas: states
	// that differ only by a permutation of the (identical) env threads are
	// identified. Sound and complete for safety — env replicas run the
	// same program and messages carry no thread identity — and often
	// exponentially smaller in the replica count.
	Symmetry bool
	// Workers is the number of exploration goroutines used by the
	// context-aware explorers (<= 0 selects GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives periodic engine stats snapshots from
	// the context-aware explorers.
	Progress func(engine.Stats)
	// Trace, when non-nil, is the parent span under which the context-aware
	// explorers record their engine run span ("concrete-explore" or
	// "deadlock-scan").
	Trace *obs.Span
	// Metrics, when non-nil, receives the engine's gauges and histograms.
	Metrics *obs.Registry
}

// ErrLimit is reported (wrapped) when exploration stops due to a limit
// before finding a violation and before exhausting the state space.
var ErrLimit = errors.New("exploration limit reached")

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
	// wall time, workers) when the search ran on the parallel engine.
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

// Explore runs a breadth-first search of the instance's RA state space,
// looking for an `assert false` transition.
func (inst *Instance) Explore(lim Limits) Result {
	type node struct {
		state *State
		key   string
		depth int
	}
	init := inst.InitState()
	initKey := inst.stateKey(init, lim.Symmetry)
	visited := map[string]backEdge{initKey: {}}
	lookup := func(k string) (backEdge, bool) {
		be, ok := visited[k]
		return be, ok
	}

	queue := []node{{state: init, key: initKey, depth: 0}}
	res := Result{States: 1}
	limited := false
	var sc scratch

	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if lim.MaxDepth > 0 && n.depth >= lim.MaxDepth {
			limited = true
			continue
		}
		inst.eachSucc(n.state, &sc, func(st step) bool {
			res.Transitions++
			if st.assert() {
				res.Unsafe = true
				res.Witness = inst.witness(lookup, initKey, n.key, st)
				return false
			}
			inst.keyInto(&sc, lim.Symmetry)
			if _, seen := visited[string(sc.enc.Bytes())]; seen {
				return true
			}
			if lim.MaxStates > 0 && res.States >= lim.MaxStates {
				limited = true
				return true
			}
			sk := sc.enc.String()
			visited[sk] = backEdge{prevKey: n.key, step: st}
			res.States++
			queue = append(queue, node{state: sc.materialize(), key: sk, depth: n.depth + 1})
			return true
		})
		if res.Unsafe {
			return res
		}
	}
	res.Complete = !limited
	return res
}

// ReachablePCs explores the instance and returns, per thread index, the set
// of CFG nodes that thread can reach. Used by the differential tests and the
// §4.3 experiments. Exploration respects lim; the boolean reports whether
// the state space was exhausted.
func (inst *Instance) ReachablePCs(lim Limits) ([]map[int]bool, bool) {
	init := inst.InitState()
	visited := map[string]bool{init.Key(): true}
	reach := make([]map[int]bool, len(inst.Threads))
	for i := range reach {
		reach[i] = map[int]bool{}
	}
	record := func(s *State) {
		for i, th := range s.Threads {
			reach[i][int(th.PC)] = true
		}
	}
	record(init)
	queue := []*State{init}
	states := 1
	complete := true
	var sc scratch
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		inst.eachSucc(s, &sc, func(step) bool {
			inst.keyInto(&sc, false)
			if visited[string(sc.enc.Bytes())] {
				return true
			}
			if lim.MaxStates > 0 && states >= lim.MaxStates {
				complete = false
				return true
			}
			visited[sc.enc.String()] = true
			states++
			ns := sc.materialize()
			record(ns)
			queue = append(queue, ns)
			return true
		})
	}
	return reach, complete
}

// FormatWitness renders a violating computation for human consumption.
func FormatWitness(w []Event) string {
	var b strings.Builder
	for i, ev := range w {
		fmt.Fprintf(&b, "%3d. [%s] %s\n", i+1, ev.Name, ev.Op)
	}
	return b.String()
}
