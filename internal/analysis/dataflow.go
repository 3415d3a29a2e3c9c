// Package analysis implements a static-analysis layer over the Com
// while-language of internal/lang: a generic monotone dataflow framework
// (worklist fixpoint over lang.CFG, forward and backward), concrete analyses
// on top of it (register liveness, may-be-unassigned registers, per-thread
// shared-variable footprints, and the interference-closed value analysis —
// per-PC register value sets, per-variable written-sets and reachability,
// sound for every replica count), one linter with the `ravet` rules, and a
// verdict-preserving program slicer used as an opt-in pre-pass by the
// verification pipeline. The linter, the slicer, the static prepass
// (internal/absint) and the Datalog encoder's grounding hints all read the
// one value analysis.
//
// The analyses are deliberately cheap — linear-ish fixpoints over the
// thread-local CFGs — because their job is to shrink and sanity-check the
// instances *before* they reach the PSPACE decision procedure
// (internal/simplified, internal/encode/internal/datalog), where every
// register, shared variable, and CFG node multiplies the state space.
package analysis

import (
	"paramra/internal/lang"
)

// Direction selects the orientation of a dataflow problem.
type Direction int

// Dataflow directions.
const (
	// Forward propagates facts along edges, from the CFG entry.
	Forward Direction = iota + 1
	// Backward propagates facts against edges, from the terminal nodes.
	Backward
)

// Problem is a monotone dataflow problem over a CFG. Facts form a join
// semi-lattice described by Bottom/Join/Equal; Transfer must be monotone in
// its fact argument or the fixpoint may not terminate.
type Problem[F any] struct {
	Dir Direction
	// Bottom is the least fact, the initial value at every non-boundary PC.
	Bottom func() F
	// Boundary is the fact at the CFG entry (Forward) or at every terminal
	// PC, i.e. a PC with no outgoing edges (Backward).
	Boundary func() F
	// Join combines facts flowing into the same PC. It must not mutate
	// either argument (the solver compares the joined fact against the old
	// one to detect the fixpoint).
	Join func(a, b F) F
	// Equal reports whether two facts coincide (fixpoint detection).
	Equal func(a, b F) bool
	// Transfer computes the effect of executing edge e on fact `in`: the
	// fact after the edge (Forward) or before it (Backward). It must not
	// mutate `in`.
	Transfer func(e lang.Edge, in F) F
}

// Solve runs the worklist fixpoint and returns one fact per PC: for Forward
// problems the fact holding when control is at that PC (before any outgoing
// edge executes); for Backward problems the fact summarizing everything
// that can happen from that PC onwards.
func Solve[F any](g *lang.CFG, p Problem[F]) []F {
	switch p.Dir {
	case Forward:
		return solveForward(g, p)
	case Backward:
		return solveBackward(g, p)
	default:
		panic("analysis.Solve: unknown direction")
	}
}

// worklist is a FIFO node queue with an in-queue bitmap.
type worklist struct {
	queue []lang.PC
	in    []bool
}

func newWorklist(n int) *worklist {
	return &worklist{in: make([]bool, n)}
}

func (w *worklist) push(n lang.PC) {
	if !w.in[n] {
		w.in[n] = true
		w.queue = append(w.queue, n)
	}
}

func (w *worklist) pop() (lang.PC, bool) {
	if len(w.queue) == 0 {
		return 0, false
	}
	n := w.queue[0]
	w.queue = w.queue[1:]
	w.in[n] = false
	return n, true
}

func solveForward[F any](g *lang.CFG, p Problem[F]) []F {
	facts := make([]F, g.NumNodes)
	for i := range facts {
		facts[i] = p.Bottom()
	}
	facts[g.Entry] = p.Boundary()
	w := newWorklist(g.NumNodes)
	w.push(g.Entry)
	for {
		n, ok := w.pop()
		if !ok {
			return facts
		}
		for _, e := range g.Out[n] {
			out := p.Transfer(e, facts[n])
			joined := p.Join(facts[e.To], out)
			if !p.Equal(joined, facts[e.To]) {
				facts[e.To] = joined
				w.push(e.To)
			}
		}
	}
}

func solveBackward[F any](g *lang.CFG, p Problem[F]) []F {
	preds := Predecessors(g)
	facts := make([]F, g.NumNodes)
	w := newWorklist(g.NumNodes)
	for n := 0; n < g.NumNodes; n++ {
		if len(g.Out[n]) == 0 {
			facts[n] = p.Boundary()
			for _, e := range preds[n] {
				w.push(e.From)
			}
		} else {
			facts[n] = p.Bottom()
			w.push(lang.PC(n))
		}
	}
	for {
		n, ok := w.pop()
		if !ok {
			return facts
		}
		if len(g.Out[n]) == 0 {
			continue // boundary node, fact fixed
		}
		acc := p.Bottom()
		for _, e := range g.Out[n] {
			acc = p.Join(acc, p.Transfer(e, facts[e.To]))
		}
		if !p.Equal(acc, facts[n]) {
			facts[n] = acc
			for _, e := range preds[n] {
				w.push(e.From)
			}
		}
	}
}

// Predecessors returns, per PC, the list of edges entering it.
func Predecessors(g *lang.CFG) [][]lang.Edge {
	in := make([][]lang.Edge, g.NumNodes)
	for _, edges := range g.Out {
		for _, e := range edges {
			in[e.To] = append(in[e.To], e)
		}
	}
	return in
}

// regSet is a compact bitset over RegIDs.
type regSet []uint64

func newRegSet(numRegs int) regSet {
	return make(regSet, (numRegs+63)/64)
}

func (s regSet) has(r lang.RegID) bool {
	i := int(r)
	return i >= 0 && i/64 < len(s) && s[i/64]&(1<<(i%64)) != 0
}

func (s regSet) add(r lang.RegID) {
	s[int(r)/64] |= 1 << (int(r) % 64)
}

func (s regSet) remove(r lang.RegID) {
	s[int(r)/64] &^= 1 << (int(r) % 64)
}

func (s regSet) union(t regSet) {
	for i := range t {
		s[i] |= t[i]
	}
}

func (s regSet) equal(t regSet) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

func (s regSet) clone() regSet {
	out := make(regSet, len(s))
	copy(out, s)
	return out
}
