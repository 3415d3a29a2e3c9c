package analysis

import (
	"paramra/internal/lang"
)

// The value analysis computes, as one interference-closed fixpoint across
// all threads (the env template and every dis template, parameterized in the
// replica count n), an over-approximation of
//
//   - the set of values each register can hold at each program point, and
//   - the set of values ever written to each shared variable.
//
// It is sound for unboundedly many environment threads because it is
// value-only and flow-insensitive across threads: a load returns the
// *entire* abstract written-set of the variable, which subsumes every
// message any interleaving of any number of replicas could publish — the
// "env can republish any observed value" structure the simplified semantics
// (Infinite Supply Lemma) makes explicit. Timestamps, views, and coherence
// order are abstracted away entirely, so the analysis proves only
// value-reachability facts. The slicer, the lint rules, the static prepass
// (internal/absint) and the Datalog encoder's grounding hints all read them.

// fact is the forward dataflow fact at one PC: reachability plus one value
// set per register. The unreachable fact is the problem's bottom and carries
// no register vector.
type fact struct {
	reach bool
	regs  []VSet
}

func factEqual(a, b fact) bool {
	if a.reach != b.reach {
		return false
	}
	for i := range a.regs {
		if !Equal(a.regs[i], b.regs[i]) {
			return false
		}
	}
	return true
}

// ThreadFacts holds the value facts of one program.
type ThreadFacts struct {
	Prog *lang.Program
	CFG  *lang.CFG
	// facts[pc] is the abstract state when control is at pc.
	facts []fact
}

// Reachable reports whether pc is abstractly reachable: false means no
// execution, for any replica count, ever gets there.
func (t *ThreadFacts) Reachable(pc lang.PC) bool { return t.facts[pc].reach }

// RegAt returns the value set of register r at pc (bottom when pc is
// unreachable or r is out of range).
func (t *ThreadFacts) RegAt(pc lang.PC, r lang.RegID) VSet {
	f := t.facts[pc]
	if !f.reach || int(r) < 0 || int(r) >= len(f.regs) {
		return VSet{}
	}
	return f.regs[r]
}

// EvalAt over-approximates the values of e at pc (bottom when pc is
// unreachable). No norm is applied, matching Expr.Eval.
func (t *ThreadFacts) EvalAt(pc lang.PC, e lang.Expr) VSet {
	f := t.facts[pc]
	if !f.reach {
		return VSet{}
	}
	return evalExpr(e, f.regs)
}

// AllowedAt returns the values register reg can hold at pc, for grounding:
// ok is false when the set is widened (callers should fall back to the full
// domain). An empty slice with ok=true means the PC is unreachable.
func (t *ThreadFacts) AllowedAt(pc lang.PC, reg lang.RegID) (vals []lang.Val, ok bool) {
	return t.RegAt(pc, reg).Exact()
}

// Result is the system-wide value analysis result.
type Result struct {
	Sys *lang.System
	// Written[v] over-approximates the values any message on variable v can
	// carry (the initial value plus everything any thread, in any replica
	// count, can store or CAS into it).
	Written []VSet
	// Threads holds the per-thread facts, aligned with Sys.Threads() (env
	// first when present, then the dis templates). Threads sharing a
	// *lang.Program share a *ThreadFacts.
	Threads []*ThreadFacts
	// Programs lists the distinct ThreadFacts in first-appearance order of
	// Threads.
	Programs []*ThreadFacts
	// Rounds is the number of interference rounds until the written-sets
	// stabilized.
	Rounds int
}

// Analyze runs the interference-closed fixpoint: per-thread forward
// dataflow (on Solve) alternating with a written-set update, until no
// thread can publish a new value that some thread reads. Termination: both
// the per-register sets and the written-sets live in the finite widening
// lattice of Norm-ed VSets and only ever grow across rounds.
func Analyze(sys *lang.System) *Result {
	res := &Result{Sys: sys, Written: make([]VSet, len(sys.Vars))}
	for v := range res.Written {
		res.Written[v] = Singleton(sys.Init)
	}

	// Compile and analyze each distinct program once even when the system
	// reuses a template pointer for several threads.
	threads := sys.Threads()
	byProg := map[*lang.Program]*ThreadFacts{}
	res.Threads = make([]*ThreadFacts, len(threads))
	for i, p := range threads {
		tf, ok := byProg[p]
		if !ok {
			tf = &ThreadFacts{Prog: p, CFG: lang.Compile(p)}
			byProg[p] = tf
			res.Programs = append(res.Programs, tf)
		}
		res.Threads[i] = tf
	}

	// A program's facts depend on the written-sets only through its loads
	// and CASes, so a round re-solves just the programs reading a variable
	// whose set grew in the round before.
	dirty := make([]bool, len(res.Programs))
	for i := range dirty {
		dirty[i] = true
	}
	grew := make([]bool, len(sys.Vars))
	for {
		res.Rounds++
		for i, tf := range res.Programs {
			if dirty[i] {
				tf.facts = solveThread(tf.CFG, sys, res.Written)
			}
		}
		next := contributions(sys, res.Programs, res.Written)
		for v := range next {
			grew[v] = !Equal(next[v], res.Written[v])
		}
		res.Written = next
		again := false
		for i, tf := range res.Programs {
			dirty[i] = readsAny(tf.CFG, grew)
			again = again || dirty[i]
		}
		if !again {
			return res
		}
	}
}

// readsAny reports whether g loads or CASes a variable marked in vars.
func readsAny(g *lang.CFG, vars []bool) bool {
	for _, edges := range g.Out {
		for _, e := range edges {
			if (e.Op.Kind == lang.OpLoad || e.Op.Kind == lang.OpCASOp) && vars[e.Op.Var] {
				return true
			}
		}
	}
	return false
}

// solveThread runs one forward pass over a thread's CFG against the current
// written-sets.
func solveThread(g *lang.CFG, sys *lang.System, written []VSet) []fact {
	numRegs := g.Prog.NumRegs()
	// set returns in with register r replaced by s, sharing in when nothing
	// changes (facts are never mutated once built).
	set := func(in fact, r lang.RegID, s VSet) fact {
		if Equal(in.regs[r], s) {
			return in
		}
		out := fact{reach: true, regs: append([]VSet(nil), in.regs...)}
		out.regs[r] = s
		return out
	}
	return Solve(g, Problem[fact]{
		Dir:    Forward,
		Bottom: func() fact { return fact{} },
		Boundary: func() fact {
			f := fact{reach: true, regs: make([]VSet, numRegs)}
			for i := range f.regs {
				f.regs[i] = Singleton(0) // registers start at 0 in both engines
			}
			return f
		},
		Join: func(a, b fact) fact {
			if !a.reach {
				return b
			}
			if !b.reach {
				return a
			}
			return fact{reach: true, regs: joinRegs(a.regs, b.regs)}
		},
		Equal: factEqual,
		Transfer: func(e lang.Edge, in fact) fact {
			if !in.reach {
				return in
			}
			switch e.Op.Kind {
			case lang.OpAssume:
				cond := evalExpr(e.Op.E, in.regs)
				if !cond.canBeTrue() {
					return fact{} // blocks forever
				}
				return fact{reach: true, regs: refineTrue(e.Op.E, in.regs)}
			case lang.OpAssign:
				return set(in, e.Op.Reg, evalExpr(e.Op.E, in.regs).Norm(sys.Dom))
			case lang.OpLoad:
				// An RA load can return any value some thread may have
				// published: the abstract written-set, which covers the init
				// message, every dis store, and every env replica's stores.
				return set(in, e.Op.Reg, written[e.Op.Var])
			case lang.OpCASOp:
				// CAS blocks unless the expected value is observable.
				expect := evalExpr(e.Op.E, in.regs).Norm(sys.Dom)
				if Intersect(expect, written[e.Op.Var]).IsEmpty() {
					return fact{} // can never succeed
				}
				return in
			default: // OpNop, OpAssertFail, OpStore: thread-local state unchanged
				return in
			}
		},
	})
}

// contributions recomputes the written-sets from every thread's reachable
// store and CAS edges, starting from the initial value.
func contributions(sys *lang.System, progs []*ThreadFacts, prev []VSet) []VSet {
	next := make([]VSet, len(sys.Vars))
	for v := range next {
		next[v] = Singleton(sys.Init)
	}
	for _, tf := range progs {
		for _, edges := range tf.CFG.Out {
			for _, e := range edges {
				f := tf.facts[e.From]
				if !f.reach {
					continue
				}
				switch e.Op.Kind {
				case lang.OpStore:
					val := evalExpr(e.Op.E, f.regs).Norm(sys.Dom)
					next[e.Op.Var] = Join(next[e.Op.Var], val)
				case lang.OpCASOp:
					expect := evalExpr(e.Op.E, f.regs).Norm(sys.Dom)
					if Intersect(expect, prev[e.Op.Var]).IsEmpty() {
						continue // success edge infeasible: contributes nothing
					}
					val := evalExpr(e.Op.E2, f.regs).Norm(sys.Dom)
					next[e.Op.Var] = Join(next[e.Op.Var], val)
				}
			}
		}
	}
	// Written-sets must grow monotonically across rounds: a value observable
	// in round k stays observable (messages are never retracted).
	for v := range next {
		next[v] = Join(prev[v], next[v])
	}
	return next
}

// VarCanHold reports whether variable v can ever carry value d (after
// norm-ing d into the domain, matching the engines). True may be spurious;
// false is definite.
func (r *Result) VarCanHold(v lang.VarID, d lang.Val) bool {
	if int(v) < 0 || int(v) >= len(r.Written) {
		return true
	}
	return r.Written[v].Contains(d.Norm(r.Sys.Dom))
}

// EnvFacts returns the env template's per-PC facts, or nil when the system
// has no env program. The Datalog encoder uses them to restrict its
// register-valuation grounding: enumerating a register only over the values
// it can actually hold at a program point shrinks the instance from
// Dom^k-per-edge to the product of the abstract set sizes, without changing
// derivability (every dropped rule has an underivable body).
func (r *Result) EnvFacts() *ThreadFacts {
	if r.Sys.Env == nil || len(r.Threads) == 0 {
		return nil
	}
	return r.Threads[0]
}
