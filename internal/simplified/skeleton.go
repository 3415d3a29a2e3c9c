package simplified

import (
	"context"

	"paramra/internal/lang"
)

// Skeleton support for the makeP encoding (§4.1). The paper's procedure
// makeP non-deterministically guesses the dis threads' part of the
// computation; the Datalog program then checks that env threads can supply
// the messages the guess consumes. An implementation cannot guess, so we
// enumerate: every path of a depth-first walk over the verifier's
// macro-state graph yields one skeleton. This is the ∃-semantics of Theorem 4.1 — the
// instance is unsafe iff some skeleton's query evaluates to true — restricted
// to guesses that are consistent with a reachable env supply, which loses no
// behaviours (saturation over-approximates nothing and misses nothing).

// SkeletonStep is one dis transition of a guessed dis run.
type SkeletonStep struct {
	// Dis is the index of the stepping dis thread.
	Dis int
	// Kind is the operation kind (lang.OpNop for structural steps).
	Kind lang.OpKind
	// Var is the shared variable for load/store/CAS steps.
	Var lang.VarID
	// Val is the value loaded (load) or stored (store/CAS).
	Val lang.Val
	// TS is the integer timestamp of the store/CAS slot; -1 otherwise.
	TS int
	// ReadEnv is the env message read by a load/CAS, nil when the step read
	// a dis message or performed no read.
	ReadEnv *AMsg
	// ReadDisTS is the integer timestamp of the dis message read; -1 when
	// the read was from an env message or absent.
	ReadDisTS int
	// Stored is the dis message written by a store/CAS step.
	Stored *AMsg
	// Assert marks the violating `assert false` transition.
	Assert bool
}

// Skeleton is a maximal (or assert-terminated) guessed dis run.
type Skeleton struct {
	Steps []SkeletonStep
	// Unsafe marks skeletons ending in a dis assert.
	Unsafe bool
	// Shared is the number of leading steps the skeleton shares with the
	// one emitted before it, as the walk's paths: the depth of the DFS
	// tree's node where the two paths part (0 for the first skeleton).
	// No path the walk emits is a prefix of another, so every skeleton but
	// the first has a step past Shared.
	Shared int
}

// EachSkeleton walks the dis-run skeletons by depth-first search over the
// macro-state space, memoized on state keys so each macro-state is expanded
// once, and hands each one to yield as the walk reaches it: every maximal
// or assert-terminated path of the DFS tree is one skeleton, and its Shared
// says how much of the path before it it keeps. The walk stops when yield
// returns false. The skeleton's Steps are the walk's own path,
// valid only during the call; a consumer that keeps them copies them.
// maxPaths > 0 caps the number of skeletons. complete reports whether the
// walk ran to its end: false when the cap or yield cut it short. ctx is
// checked once per expanded macro-state and during saturation, and
// cancellation surfaces as its error.
//
// The walk is the fixpoint's macro-state graph (the same eachDisMove and
// saturation) walked depth-first rather than layer by layer: makeP needs
// the DFS tree's paths, and a breadth-first admission order would memoize
// different states first and so yield a different skeleton set. Unlike the
// fixpoint, the walk keeps integer timestamps: each store may take any free
// slot within the variable's budget.
func (v *Verifier) EachSkeleton(ctx context.Context, maxPaths int, yield func(Skeleton) bool) (complete bool, err error) {
	w := skelWalk{ex: &exec{v: v, ctx: ctx}, max: maxPaths, yield: yield, complete: true}
	init := v.initState()
	// Saturation may already hit an env assert; skeleton consumers detect
	// that via the bad() rules, so the violation is ignored here.
	if _, err := w.ex.saturate(init); err != nil {
		return false, err
	}
	w.seen = map[string]bool{init.key(): true}
	if err := w.dfs(ctx, init); err != nil {
		return false, err
	}
	return w.complete, nil
}

// Skeletons collects EachSkeleton's skeletons, each with its own copy of
// its steps. On cancellation it returns ctx's error and no skeletons.
func (v *Verifier) Skeletons(ctx context.Context, maxPaths int) ([]Skeleton, bool, error) {
	var out []Skeleton
	complete, err := v.EachSkeleton(ctx, maxPaths, func(sk Skeleton) bool {
		steps := make([]SkeletonStep, len(sk.Steps))
		copy(steps, sk.Steps)
		out = append(out, Skeleton{Steps: steps, Unsafe: sk.Unsafe, Shared: sk.Shared})
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return out, complete, nil
}

// skelWalk is the state of one EachSkeleton walk.
type skelWalk struct {
	ex    *exec
	max   int
	yield func(Skeleton) bool
	seen  map[string]bool
	path  []SkeletonStep
	// low is the length of the shortest path since the last emit: the
	// steps the next skeleton shares with it.
	low      int
	emitted  int
	stopped  bool
	complete bool
}

// skelSucc pairs a successor macro-state with the step that reaches it.
type skelSucc struct {
	st   *state
	step SkeletonStep
}

// done reports whether the walk must end: yield stopped it, or the output
// cap is reached, which marks the enumeration incomplete. Expanding (and
// saturating) the remaining macro-state space could not emit anything and
// is exactly the exponential part of the walk, so every caller stops there.
func (w *skelWalk) done() bool {
	if w.stopped {
		return true
	}
	if w.max > 0 && w.emitted >= w.max {
		w.complete = false
		return true
	}
	return false
}

// emit hands the current path to yield as a skeleton.
func (w *skelWalk) emit(unsafe bool) {
	if w.done() {
		return
	}
	w.emitted++
	shared := w.low
	w.low = len(w.path)
	if !w.yield(Skeleton{Steps: w.path, Unsafe: unsafe, Shared: shared}) {
		w.stopped, w.complete = true, false
	}
}

// pop takes the last step off the path.
func (w *skelWalk) pop() {
	w.path = w.path[:len(w.path)-1]
	w.low = min(w.low, len(w.path))
}

// dfs expands st and walks into every successor not seen before, emitting
// a skeleton at each assert and at each state where the walk ends.
func (w *skelWalk) dfs(ctx context.Context, st *state) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.done() {
		return nil
	}
	// The first enabled assert ends a skeleton of its own; the enumeration
	// goes on past it, since the other moves may lead to further skeletons.
	var succs []skelSucc
	var viol SkeletonStep
	hasViol := false
	w.ex.eachDisMove(st, func(mv *disMove) bool {
		if mv.kind == lang.OpAssertFail {
			if !hasViol {
				viol, hasViol = mv.skeletonStep(), true
			}
			return true
		}
		ns := st.clone()
		ns.dis[mv.dis] = mv.next
		if mv.hasPut {
			ns.mem.Put(mv.put)
		}
		succs = append(succs, skelSucc{st: ns, step: mv.skeletonStep()})
		return true
	})
	if hasViol {
		w.path = append(w.path, viol)
		w.emit(true)
		w.pop()
	}
	progressed := false
	for _, s := range succs {
		if w.done() {
			return nil
		}
		if _, err := w.ex.saturate(s.st); err != nil {
			return err
		}
		k := s.st.key()
		if w.seen[k] {
			continue
		}
		w.seen[k] = true
		progressed = true
		w.path = append(w.path, s.step)
		if err := w.dfs(ctx, s.st); err != nil {
			return err
		}
		w.pop()
	}
	if !progressed && !hasViol {
		w.emit(false)
	}
	return nil
}

// skeletonStep renders the move as a skeleton step.
func (mv *disMove) skeletonStep() SkeletonStep {
	s := SkeletonStep{Dis: mv.dis, Kind: mv.kind, TS: -1, ReadDisTS: -1,
		Assert: mv.kind == lang.OpAssertFail}
	if mv.hasRead {
		s.Var, s.Val = mv.read.Var, mv.read.Val
		if mv.read.Env {
			m := mv.read
			s.ReadEnv = &m
		} else {
			s.ReadDisTS = mv.read.TS.Floor()
		}
	}
	if mv.hasPut {
		m := mv.put
		s.Var, s.Val, s.TS, s.Stored = m.Var, m.Val, m.TS.Floor(), &m
	}
	return s
}
