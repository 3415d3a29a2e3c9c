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
// cancellation surfaces as its error. It is NewSkeletonWalk's walk, pulled
// to its end.
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
	w := &SkeletonWalk{w: skelWalk{ex: ex, max: maxPaths, complete: true}}
	for {
		sk, ok, err := w.Next(ctx)
		if err != nil {
			return false, err
		}
		if !ok {
			return w.Complete(), nil
		}
		if !yield(sk) {
			return false, nil
		}
	}
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

// SkeletonWalk is EachSkeleton's walk as a value its consumer pulls one
// skeleton at a time: it keeps the walk's DFS stack of frames between two
// Next calls, so the consumer can stop between skeletons and go on later,
// and the skeletons it pulls are EachSkeleton's, in order.
type SkeletonWalk struct {
	w       skelWalk
	started bool
}

// NewSkeletonWalk prepares EachSkeleton's walk with the cap maxPaths.
// Nothing runs before the first Next.
func (v *Verifier) NewSkeletonWalk(maxPaths int) *SkeletonWalk {
	return &SkeletonWalk{w: skelWalk{ex: v.newExec(nil), max: maxPaths, complete: true}}
}

// Next walks on to the next skeleton and returns it, with its Steps valid
// until the next call, or reports false once the walk has ended. The first
// call saturates the initial macro-state.
func (sw *SkeletonWalk) Next(ctx context.Context) (Skeleton, bool, error) {
	w := &sw.w
	w.ex.ctx = ctx
	if !sw.started {
		sw.started = true
		init := w.ex.v.initState()
		// Saturation may already hit an env assert; skeleton consumers
		// detect that via the bad() rules, so the violation is ignored
		// here.
		if _, err := w.ex.saturate(init); err != nil {
			return Skeleton{}, false, err
		}
		w.seen = map[string]bool{init.key(): true}
		if err := w.enter(ctx, init); err != nil {
			return Skeleton{}, false, err
		}
	}
	for !w.hasOut {
		if len(w.frames) == 0 || w.over {
			w.frames = nil
			return Skeleton{}, false, nil
		}
		if err := w.advance(ctx); err != nil {
			w.frames = nil
			return Skeleton{}, false, err
		}
	}
	w.hasOut = false
	return w.cur, true, nil
}

// Complete reports whether the walk ran to its end: false when the cap cut
// it short. It is final once Next has reported false.
func (sw *SkeletonWalk) Complete() bool { return sw.w.complete }

// skelWalk is the state of one skeleton walk.
type skelWalk struct {
	ex   *exec
	max  int
	seen map[string]bool
	// frames is the DFS stack: frames[i] is the state path step i-1
	// reached (the initial state for i = 0), with the successors it has
	// left to walk into.
	frames []skelFrame
	path   []SkeletonStep
	// renums[i] is the renumbering path step i applied to the state it
	// reached (lo < 0 when it moved nothing). Entries past the path keep
	// their slot arrays for reuse.
	renums []renumbering
	// out holds the last emitted skeleton: the path relabeled to its
	// leaf's slots.
	out []SkeletonStep
	// cur is the skeleton emitted last, and hasOut whether Next has yet
	// to hand it out.
	cur    Skeleton
	hasOut bool
	// low is the length of the shortest path since the last emit: the
	// steps the next skeleton's path shares with it.
	low     int
	emitted int
	// over is set once the walk must end (see done), and complete is
	// cleared when the cap ended it.
	over     bool
	complete bool
}

// skelFrame is one state on the walk's DFS stack: the successors it has
// left to walk into, from next on, and whether it has an enabled assert
// or has walked into a successor (else it ends a skeleton).
type skelFrame struct {
	succs      []skelSucc
	next       int
	hasViol    bool
	progressed bool
}

// skelSucc pairs a successor macro-state with the step that reaches it.
type skelSucc struct {
	st   *state
	step SkeletonStep
}

// done reports whether the walk must end: the output cap is reached, which
// marks the enumeration incomplete. Expanding (and saturating) the
// remaining macro-state space could not emit anything and is exactly the
// exponential part of the walk, so every caller stops there.
func (w *skelWalk) done() bool {
	if w.max > 0 && w.emitted >= w.max {
		w.complete = false
		return true
	}
	return false
}

// end reports whether the walk must end (see done), and if so ends it.
func (w *skelWalk) end() bool {
	w.over = w.over || w.done()
	return w.over
}

// emit makes the current path the skeleton Next hands out.
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
	w.cur, w.hasOut = Skeleton{Steps: steps, Unsafe: unsafe, Shared: shared}, true
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

// enter expands st onto the DFS stack, unless the walk must end: it
// collects st's successors and, at its first enabled assert, emits a
// skeleton of its own. The enumeration goes on past the assert, since the
// other moves may lead to further skeletons.
func (w *skelWalk) enter(ctx context.Context, st *state) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.end() {
		return nil
	}
	f := skelFrame{}
	var viol SkeletonStep
	w.ex.eachDisMove(st, func(mv *disMove) bool {
		if mv.kind == lang.OpAssertFail {
			if !f.hasViol {
				viol, f.hasViol = mv.skeletonStep(), true
			}
			return true
		}
		ns := st.clone()
		ns.dis[mv.dis] = mv.next
		if mv.hasPut {
			ns.mem.Put(mv.put)
		}
		f.succs = append(f.succs, skelSucc{st: ns, step: mv.skeletonStep()})
		return true
	})
	w.frames = append(w.frames, f)
	if f.hasViol {
		w.push(viol, nil)
		w.emit(true)
		w.pop()
	}
	return nil
}

// advance takes one step of the DFS on the top frame: it walks into the
// frame's next successor not seen before, or, once none is left, leaves
// the frame, emitting a skeleton where the walk ends.
func (w *skelWalk) advance(ctx context.Context) error {
	f := &w.frames[len(w.frames)-1]
	for f.next < len(f.succs) {
		if w.end() {
			return nil
		}
		s := f.succs[f.next]
		f.succs[f.next] = skelSucc{} // do not pin the state
		f.next++
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
		enc := &w.ex.enc
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
		f.progressed = true
		w.push(s.step, r)
		return w.enter(ctx, s.st)
	}
	if !f.progressed && !f.hasViol {
		w.emit(false)
	}
	w.frames = w.frames[:len(w.frames)-1]
	if len(w.frames) > 0 {
		w.pop()
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
