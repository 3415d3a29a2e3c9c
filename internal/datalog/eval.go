package datalog

import (
	"context"
	"errors"
	"slices"
	"strings"
	"time"
)

// Bottom-up evaluation. Eval computes a program's least model semi-naively:
// each round joins every rule only against the atoms the previous round
// derived. Continue evaluates more rules as a continuation of such a model,
// which stays read-only and may serve any number of continuations at once;
// QueryCtx is the continuation of the empty model, and both stop as soon as
// their goal is derived. The tests check them against a naive reference
// evaluator (naive_test.go).

// DB is a set of ground atoms. Each predicate's atoms are kept in insertion
// order under fixed-width packed argument keys, with an index on the first
// argument that joins use whenever the first body term is a constant or
// already bound. A DB may sit on a read-only base: it then holds only the
// atoms the base lacks, and lookups and joins see both. Nothing writes to a
// DB once it serves as a base.
type DB struct {
	base  *DB
	rels  []relation
	width int // bytes per packed constant
	size  int // atoms held here, excluding the base's

	// shared indexes, by body predicate, the rules this DB is the least
	// model of (set by Eval): a continuation re-runs them on its deltas.
	shared [][]use
	rules  []Rule
}

// relation holds one predicate's atoms.
type relation struct {
	arity int
	n     int
	args  []Const // atom i's arguments are args[i*arity : (i+1)*arity]
	// Keys of at most eight bytes pack into a uint64; longer ones into a
	// string.
	small map[uint64]struct{}
	big   map[string]struct{}
	first [][]int32 // first argument → positions of the atoms that carry it
}

// use is one body position of a rule.
type use struct{ rule, pos int }

// NewDB returns an empty database over the program's predicates.
func NewDB(p *Program) *DB {
	db := &DB{rels: make([]relation, len(p.Preds)), width: keyWidth(len(p.Consts))}
	for i, pd := range p.Preds {
		db.rels[i].arity = pd.Arity
	}
	return db
}

// on returns an empty database over base's predicates that sits on base.
func on(base *DB) *DB {
	db := &DB{base: base, rels: make([]relation, len(base.rels)), width: base.width}
	for i := range db.rels {
		db.rels[i].arity = base.rels[i].arity
	}
	return db
}

// keyWidth is the number of bytes a packed key spends per constant when
// the program interns n constants.
func keyWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	default:
		return 4
	}
}

// packKey packs args at width bytes per constant: into k when the key
// fits in eight bytes (b is then nil), else appended to buf as b. ok is
// false when a constant does not fit the width, so no stored atom has it.
func packKey(buf []byte, args []Const, width int) (k uint64, b []byte, ok bool) {
	limit := Const(1)<<(8*width) - 1
	small := len(args)*width <= 8
	for _, c := range args {
		if c < 0 || c > limit {
			return 0, nil, false
		}
		if small {
			k = k<<(8*width) | uint64(c)
			continue
		}
		for s := 0; s < width; s++ {
			buf = append(buf, byte(c>>(8*s)))
		}
	}
	if small {
		return k, nil, true
	}
	return 0, buf, true
}

func (r *relation) has(k uint64, b []byte) bool {
	if b == nil {
		_, ok := r.small[k]
		return ok
	}
	_, ok := r.big[string(b)]
	return ok
}

// insert stores args (copied) under key k or b, which it must not hold yet.
func (r *relation) insert(k uint64, b []byte, args []Const) {
	if b == nil {
		if r.small == nil {
			r.small = map[uint64]struct{}{}
		}
		r.small[k] = struct{}{}
	} else {
		if r.big == nil {
			r.big = map[string]struct{}{}
		}
		r.big[string(b)] = struct{}{}
	}
	r.args = append(r.args, args...)
	if r.arity > 0 {
		c := int(args[0])
		for len(r.first) <= c {
			r.first = append(r.first, nil)
		}
		r.first[c] = append(r.first[c], int32(r.n))
	}
	r.n++
}

func (r *relation) atom(i int) []Const { return r.args[i*r.arity : (i+1)*r.arity : (i+1)*r.arity] }

// Has reports membership.
func (db *DB) Has(g GroundAtom) bool {
	if int(g.Pred) < 0 || int(g.Pred) >= len(db.rels) || len(g.Args) != db.rels[g.Pred].arity {
		return false
	}
	var buf [64]byte
	k, b, ok := packKey(buf[:0], g.Args, db.width)
	if !ok {
		return false
	}
	for d := db; d != nil; d = d.base {
		if d.rels[g.Pred].has(k, b) {
			return true
		}
	}
	return false
}

// Add inserts g (copying its arguments), reporting whether it was new.
func (db *DB) Add(g GroundAtom) bool { return db.add(g.Pred, g.Args) }

func (db *DB) add(pr Pred, args []Const) bool {
	var buf [64]byte
	k, b, ok := packKey(buf[:0], args, db.width)
	if !ok {
		panic("datalog: constant outside the database's key width")
	}
	for d := db; d != nil; d = d.base {
		if d.rels[pr].has(k, b) {
			return false
		}
	}
	db.rels[pr].insert(k, b, args)
	db.size++
	return true
}

// Size returns the number of atoms, the base's included.
func (db *DB) Size() int {
	n := 0
	for d := db; d != nil; d = d.base {
		n += d.size
	}
	return n
}

// All returns every atom, the base's included, sorted by canonical key, so
// fact dumps and derivation listings are byte-stable across runs. Callers
// must not mutate the atoms.
func (db *DB) All() []GroundAtom {
	type keyed struct {
		key string
		g   GroundAtom
	}
	ks := make([]keyed, 0, db.Size())
	for d := db; d != nil; d = d.base {
		for pr := range d.rels {
			for _, g := range d.local(Pred(pr)) {
				ks = append(ks, keyed{g.Key(), g})
			}
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]GroundAtom, len(ks))
	for i, k := range ks {
		out[i] = k.g
	}
	return out
}

// ByPred returns the atoms with the given predicate, the base's first.
// Callers must not mutate the atoms.
func (db *DB) ByPred(pr Pred) []GroundAtom {
	if db.base == nil {
		return db.local(pr)
	}
	return append(db.base.ByPred(pr), db.local(pr)...)
}

// local returns the atoms with the given predicate that db holds itself.
func (db *DB) local(pr Pred) []GroundAtom {
	r := &db.rels[pr]
	out := make([]GroundAtom, r.n)
	for i := range out {
		out[i] = GroundAtom{Pred: pr, Args: r.atom(i)}
	}
	return out
}

// binding is a partial assignment of rule variables to constants.
type binding []Const

const unbound = Const(-1)

// joiner enumerates the instantiations of one rule's body over a database
// and grounds each head into scratch; yield must copy a head it keeps.
type joiner struct {
	db   *DB
	b    binding
	undo []Var
	head []Const
	// dAt, when non-negative, restricts that body position to db's own
	// atoms at positions [lo, hi) of its predicate: the delta.
	dAt, lo, hi int
	yield       func(GroundAtom) bool
}

// rule joins r and reports whether the join ran to completion (a false
// return from yield aborts it).
func (j *joiner) rule(r *Rule, dAt, lo, hi int) bool {
	if cap(j.b) < r.NumVars {
		j.b = make(binding, r.NumVars)
	}
	j.b = j.b[:r.NumVars]
	for i := range j.b {
		j.b[i] = unbound
	}
	j.dAt, j.lo, j.hi = dAt, lo, hi
	return j.join(r, 0)
}

func (j *joiner) join(r *Rule, pos int) bool {
	if pos == len(r.Body) {
		h := r.Head
		if cap(j.head) < len(h.Terms) {
			j.head = make([]Const, len(h.Terms))
		}
		args := j.head[:len(h.Terms)]
		for i, t := range h.Terms {
			if !t.IsVar {
				args[i] = t.Const
				continue
			}
			if j.b[t.Var] == unbound {
				panic("datalog: unbound head variable")
			}
			args[i] = j.b[t.Var]
		}
		return j.yield(GroundAtom{Pred: h.Pred, Args: args})
	}
	a := &r.Body[pos]
	if pos == j.dAt {
		rel := &j.db.rels[a.Pred]
		for i := j.lo; i < j.hi; i++ {
			if !j.try(r, pos, a, rel.atom(i)) {
				return false
			}
		}
		return true
	}
	first := unbound
	if len(a.Terms) > 0 {
		if t := a.Terms[0]; t.IsVar {
			first = j.b[t.Var]
		} else {
			first = t.Const
		}
	}
	for d := j.db; d != nil; d = d.base {
		rel := &d.rels[a.Pred]
		if first == unbound {
			for i, n := 0, rel.n; i < n; i++ {
				if !j.try(r, pos, a, rel.atom(i)) {
					return false
				}
			}
			continue
		}
		if int(first) >= len(rel.first) {
			continue
		}
		for _, i := range rel.first[first] {
			if !j.try(r, pos, a, rel.atom(int(i))) {
				return false
			}
		}
	}
	return true
}

// try matches body atom a against args under the current binding and, on
// success, joins the rest of the body; the binding is restored either way.
func (j *joiner) try(r *Rule, pos int, a *Atom, args []Const) bool {
	mark := len(j.undo)
	ok := true
	for i, t := range a.Terms {
		switch c := args[i]; {
		case !t.IsVar:
			ok = t.Const == c
		case j.b[t.Var] == unbound:
			j.b[t.Var] = c
			j.undo = append(j.undo, t.Var)
		default:
			ok = j.b[t.Var] == c
		}
		if !ok {
			break
		}
	}
	cont := !ok || j.join(r, pos+1)
	for _, v := range j.undo[mark:] {
		j.b[v] = unbound
	}
	j.undo = j.undo[:mark]
	return cont
}

// joinAll joins r over the whole of db, base included, yielding each head
// from scratch.
func (db *DB) joinAll(r *Rule, yield func(GroundAtom) bool) bool {
	j := joiner{db: db, yield: yield}
	return j.rule(r, -1, 0, 0)
}

// EvalStats reports the work of one evaluation.
type EvalStats struct {
	// Rounds is the number of rounds: the first, which joins the rules in
	// full over the base (for a program without base, it adds the facts),
	// then one per delta.
	Rounds int
	// Atoms is the number of ground atoms in the database, the base's
	// included, when the evaluation ended.
	Atoms int
}

// RoundHook observes the wall time of each semi-naive delta round. Hooks
// keep the evaluator decoupled from any metrics package; a nil hook costs
// nothing (no clock reads).
type RoundHook func(d time.Duration)

// cancelCheckStride bounds how many derivations a join may produce between
// context checks: small enough that a single exploding join stays
// responsive, large enough that ctx.Err is off the hot path.
const cancelCheckStride = 4096

// errGoal stops an evaluation that derived its goal.
var errGoal = errors.New("datalog: goal derived")

// evaluator runs one semi-naive evaluation into db.
type evaluator struct {
	ctx         context.Context
	db          *DB
	goal        *GroundAtom
	derivations int
	err         error // why the evaluation stopped early: ctx's error or errGoal
	j           joiner
}

func (ev *evaluator) emit(g GroundAtom) bool {
	ev.derivations++
	if ev.derivations%cancelCheckStride == 0 {
		if err := ev.ctx.Err(); err != nil {
			ev.err = err
			return false
		}
	}
	if !ev.db.add(g.Pred, g.Args) {
		return true
	}
	if ev.goal != nil && g.Pred == ev.goal.Pred && slices.Equal(g.Args, ev.goal.Args) {
		ev.err = errGoal
		return false
	}
	return true
}

// run evaluates rules into db, a fresh database, together with the rules
// its base is the model of (see Eval): the first round joins rules in full
// against what db holds, the base (a fact yields its head); every later
// round joins the base's rules and rules with one body position restricted
// to the atoms the round before derived, until a round derives nothing or
// goal (nil: none) is derived. It checks ctx between rounds, between rules
// and every cancelCheckStride derivations; on cancellation it returns the
// partial database with ctx's error, which the caller must not treat as a
// model.
func run(ctx context.Context, db *DB, rules []Rule, goal *GroundAtom, hook RoundHook) (*DB, bool, EvalStats, error) {
	stats := EvalStats{Rounds: 1}
	var shared [][]use
	var sharedRules []Rule
	if db.base != nil {
		if goal != nil && db.base.Has(*goal) {
			stats.Atoms = db.Size()
			return db, true, stats, nil
		}
		shared, sharedRules = db.base.shared, db.base.rules
	}
	ev := &evaluator{ctx: ctx, db: db, goal: goal}
	ev.j = joiner{db: db, yield: ev.emit}
	done := func() (*DB, bool, EvalStats, error) {
		stats.Atoms = db.Size()
		if ev.err == errGoal {
			return db, true, stats, nil
		}
		return db, false, stats, ev.err
	}

	for i := range rules {
		if !ev.j.rule(&rules[i], -1, 0, 0) {
			return done()
		}
	}
	lo := make([]int, len(db.rels))
	hi := make([]int, len(db.rels))
	for pr := range db.rels {
		hi[pr] = db.rels[pr].n
	}
	for {
		if ev.err = ctx.Err(); ev.err != nil {
			return done()
		}
		more := false
		for pr := range db.rels {
			more = more || lo[pr] < hi[pr]
		}
		if !more {
			return done()
		}
		stats.Rounds++
		var roundStart time.Time
		if hook != nil {
			roundStart = time.Now()
		}
		for pr, uses := range shared {
			if lo[pr] == hi[pr] {
				continue
			}
			for _, u := range uses {
				if !ev.delta(&sharedRules[u.rule], u.pos, lo[pr], hi[pr]) {
					return done()
				}
			}
		}
		for i := range rules {
			r := &rules[i]
			for pos, a := range r.Body {
				if lo[a.Pred] < hi[a.Pred] && !ev.delta(r, pos, lo[a.Pred], hi[a.Pred]) {
					return done()
				}
			}
		}
		for pr := range db.rels {
			lo[pr], hi[pr] = hi[pr], db.rels[pr].n
		}
		if hook != nil {
			hook(time.Since(roundStart))
		}
	}
}

// delta joins r with body position pos restricted to the own atoms [lo, hi)
// of its predicate, checking ctx first.
func (ev *evaluator) delta(r *Rule, pos, lo, hi int) bool {
	if ev.err = ev.ctx.Err(); ev.err != nil {
		return false
	}
	return ev.j.rule(r, pos, lo, hi)
}

// Eval computes p's least model. The model is read-only from then on and
// may serve as the base of any number of concurrent continuations (see
// Continue). On cancellation it returns a nil database and ctx's error.
func Eval(ctx context.Context, p *Program, hook RoundHook) (*DB, EvalStats, error) {
	db, _, stats, err := run(ctx, NewDB(p), p.Rules, nil, hook)
	if err != nil {
		return nil, stats, err
	}
	db.rules = p.Rules
	db.shared = make([][]use, len(p.Preds))
	for ri, r := range p.Rules {
		for pos, a := range r.Body {
			db.shared[a.Pred] = append(db.shared[a.Pred], use{ri, pos})
		}
	}
	return db, stats, nil
}

// EvalSemiNaive returns p's least model.
func EvalSemiNaive(p *Program) *DB {
	db, _, _ := Eval(context.Background(), p, nil)
	return db
}

// Continue answers whether g is derivable from base's program extended by
// rules, which must be valid over its declarations. base is a model from
// Eval; Continue never writes to it. The continuation joins rules once in
// full against base, then runs every rule, base's and its own, on deltas,
// and stops as soon as g is derived. It returns the continued database:
// base and what the continuation added, the whole model when g was not
// derived. Cancellation aborts it mid-round and surfaces ctx's error; a
// true answer found before is still valid, false with a non-nil error
// means "unknown".
func Continue(ctx context.Context, base *DB, rules []Rule, g GroundAtom, hook RoundHook) (*DB, bool, EvalStats, error) {
	return run(ctx, on(base), rules, &g, hook)
}

// Query reports whether Prog ⊢ g.
func Query(p *Program, g GroundAtom) bool {
	hit, _, _ := QueryCtx(context.Background(), p, g, nil)
	return hit
}

// QueryCtx answers Prog ⊢ g under a context, stopping as soon as g is
// derived: the continuation of the empty model. Cancellation aborts the
// evaluation mid-round and surfaces ctx's error. A true answer found before
// cancellation is still valid; false with a non-nil error means "unknown".
func QueryCtx(ctx context.Context, p *Program, g GroundAtom, hook RoundHook) (bool, EvalStats, error) {
	_, hit, stats, err := run(ctx, NewDB(p), p.Rules, &g, hook)
	return hit, stats, err
}
