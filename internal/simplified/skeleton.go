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
	// TS is the integer timestamp of the store/CAS slot; -1 otherwise. Like
	// every timestamp of a skeleton, it is the slot in the skeleton's leaf,
	// the last state of its path, where each variable's dis messages sit on
	// canonical slots (canon.go).
	TS int
	// ReadEnv is the env message read by a load/CAS, nil when the step read
	// a dis message or performed no read.
	ReadEnv *AMsg
	// ReadDisTS is the integer timestamp of the dis message read, a slot in
	// the leaf; -1 when the read was from an env message or absent.
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
	// one emitted before it (0 for the first skeleton): at most the depth
	// of the DFS tree's node where the two paths part, and less when a
	// store below that node renumbers the messages of a step above it, so
	// that the step's timestamps differ in the two leaves. No path the walk
	// emits is a prefix of another, so every skeleton but the first has a
	// step past Shared.
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
// The walk is the fixpoint's macro-state graph (the same eachDisMove,
// canonicalize and saturation) walked depth-first rather than layer by
// layer: makeP needs the DFS tree's paths, and a breadth-first admission
// order would memoize different states first and so yield a different
// skeleton set. Like the fixpoint, the walk takes each state up to order
// (DESIGN, "Canonical timestamps"): a store chooses a gap, and the memo
// holds order classes. A step's timestamps are in the numbering of the
// state it left, so each skeleton is handed out relabeled to its leaf's
// slots.
func (v *Verifier) EachSkeleton(ctx context.Context, maxPaths int, yield func(Skeleton) bool) (complete bool, err error) {
	return v.walk(ctx, v.newExec(ctx), maxPaths, yield)
}

// walk is EachSkeleton's walk on ex. On an exec with integer timestamps,
// which only tests build, it keeps the integer states, and it hands out
// each path as it was walked, with Shared the depth where it parts from
// the one before.
func (v *Verifier) walk(ctx context.Context, ex *exec, maxPaths int, yield func(Skeleton) bool) (complete bool, err error) {
	w := skelWalk{ex: ex, max: maxPaths, yield: yield, complete: true}
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
	// renums[i] is the renumbering path step i applied to the state it
	// reached (lo < 0 when it moved nothing). Entries past the path keep
	// their slot arrays for reuse.
	renums []renumbering
	// out holds the last emitted skeleton: the path relabeled to its
	// leaf's slots.
	out []SkeletonStep
	// low is the length of the shortest path since the last emit: the
	// steps the next skeleton's path shares with it.
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
	steps, shared := w.path, w.low
	if w.ex.canon {
		steps, shared = w.relabel()
	}
	w.low = len(w.path)
	if !w.yield(Skeleton{Steps: steps, Unsafe: unsafe, Shared: shared}) {
		w.stopped, w.complete = true, false
	}
}

// push appends step to the path, with the renumbering r that the state it
// reaches took (nil for none).
func (w *skelWalk) push(step SkeletonStep, r *renumbering) {
	d := len(w.path)
	w.path = append(w.path, step)
	if d == len(w.renums) {
		w.renums = append(w.renums, renumbering{})
	}
	rn := &w.renums[d]
	rn.lo = -1
	if r != nil && r.lo >= 0 {
		rn.x, rn.lo, rn.slots = r.x, r.lo, append(rn.slots[:0], r.slots...)
	}
}

// pop takes the last step off the path.
func (w *skelWalk) pop() {
	w.path = w.path[:len(w.path)-1]
	w.low = min(w.low, len(w.path))
}

// relabel rewrites the path into out with every timestamp on its leaf's
// slots, and returns it with the number of leading steps it shares with
// the skeleton emitted before: those of the two paths' common prefix whose
// relabeled form is unchanged. out keeps the shared steps. On the common
// prefix the steps before relabeling are one, so only their timestamps
// can differ.
func (w *skelWalk) relabel() ([]SkeletonStep, int) {
	shared := 0
	for shared < w.low && sameSlots(w.stepAtLeaf(shared), &w.out[shared]) {
		shared++
	}
	w.out = w.out[:shared]
	for i := shared; i < len(w.path); i++ {
		w.out = append(w.out, w.stepAtLeaf(i))
	}
	return w.out, shared
}

// stepAtLeaf returns path step i with its timestamps on the leaf's slots.
// A message none of whose timestamps move is kept; a moved one is a fresh
// copy, so a skeleton collected earlier stays intact.
func (w *skelWalk) stepAtLeaf(i int) SkeletonStep {
	s := w.path[i]
	if s.TS >= 0 {
		s.TS = w.atLeaf(Int(s.TS), s.Var, i).Floor()
	}
	if s.ReadDisTS >= 0 {
		s.ReadDisTS = w.atLeaf(Int(s.ReadDisTS), s.Var, i).Floor()
	}
	s.Stored, s.ReadEnv = w.msgAtLeaf(s.Stored, i), w.msgAtLeaf(s.ReadEnv, i)
	return s
}

// atLeaf maps t, a timestamp on x in the numbering of the state path step
// from left, to the leaf's: through the renumbering of that step and of
// every later one on x. Each maps the slot of a message the state holds,
// in Int and Plus form alike.
func (w *skelWalk) atLeaf(t ATime, x lang.VarID, from int) ATime {
	for j := from; j < len(w.path); j++ {
		if r := &w.renums[j]; r.lo >= 0 && r.x == x {
			t = r.time(t)
		}
	}
	return t
}

// msgAtLeaf returns m, read or stored by path step from, relabeled to the
// leaf's slots: m itself when no timestamp moves, else a fresh message. A
// message's view holds its own timestamp, so the view decides both.
func (w *skelWalk) msgAtLeaf(m *AMsg, from int) *AMsg {
	if m == nil {
		return nil
	}
	var view AView
	for y, t := range m.View {
		if lt := w.atLeaf(t, lang.VarID(y), from); lt != t {
			if view == nil {
				view = m.View.Clone()
			}
			view[y] = lt
		}
	}
	if view == nil {
		return m
	}
	out := *m
	out.TS, out.View = view[m.Var], view
	return &out
}

// sameSlots reports whether two relabelings of one step agree: their
// timestamps, and those of the messages they read and store.
func sameSlots(a SkeletonStep, b *SkeletonStep) bool {
	return a.TS == b.TS && a.ReadDisTS == b.ReadDisTS &&
		(a.Stored == nil || a.Stored.View.Eq(b.Stored.View)) &&
		(a.ReadEnv == nil || a.ReadEnv.View.Eq(b.ReadEnv.View))
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
		w.push(viol, nil)
		w.emit(true)
		w.pop()
	}
	progressed := false
	enc := &w.ex.enc
	for _, s := range succs {
		if w.done() {
			return nil
		}
		// A store or CAS moves its variable's messages to canonical slots,
		// as in disSuccessors; the renumbering goes on the path with the
		// step.
		var r *renumbering
		if s.step.Stored != nil && w.ex.canon {
			w.ex.canonicalize(s.st, s.step.Var)
			r = &w.ex.renum
		}
		// The key holds no env part, so a successor is probed before it
		// is saturated, and a seen one is never saturated.
		enc.Reset()
		s.st.appendKey(enc)
		if w.seen[string(enc.Bytes())] {
			continue
		}
		k := enc.String()
		if _, err := w.ex.saturate(s.st); err != nil {
			return err
		}
		w.seen[k] = true
		progressed = true
		w.push(s.step, r)
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
