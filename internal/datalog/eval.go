package datalog

import (
	"context"
	"sort"
	"time"
)

// Bottom-up evaluation. EvalNaive recomputes all rules until fixpoint;
// EvalSemiNaive only joins against atoms derived in the previous round.
// Both return the set of derivable ground atoms; Query answers Prog ⊢ g.

// DB is a set of derived ground atoms, keyed canonically and indexed by
// predicate for rule joins.
type DB struct {
	set    map[string]GroundAtom
	byPred [][]GroundAtom
}

// NewDB returns an empty database over the program's predicates.
func NewDB(p *Program) *DB {
	return &DB{set: map[string]GroundAtom{}, byPred: make([][]GroundAtom, len(p.Preds))}
}

// Has reports membership.
func (db *DB) Has(g GroundAtom) bool {
	_, ok := db.set[g.Key()]
	return ok
}

// Add inserts g, reporting whether it was new.
func (db *DB) Add(g GroundAtom) bool {
	k := g.Key()
	if _, ok := db.set[k]; ok {
		return false
	}
	db.set[k] = g
	db.byPred[g.Pred] = append(db.byPred[g.Pred], g)
	return true
}

// Size returns the number of atoms.
func (db *DB) Size() int { return len(db.set) }

// All returns every derived atom sorted by canonical key, so fact dumps and
// derivation listings are byte-stable across runs (the backing map iterates
// in random order). Callers must not mutate the atoms.
func (db *DB) All() []GroundAtom {
	keys := make([]string, 0, len(db.set))
	for k := range db.set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroundAtom, 0, len(keys))
	for _, k := range keys {
		out = append(out, db.set[k])
	}
	return out
}

// each visits every atom in unspecified order; the evaluator's internal
// loops use it to skip All's sort.
func (db *DB) each(f func(GroundAtom)) {
	for _, g := range db.set {
		f(g)
	}
}

// ByPred returns the derived atoms with the given predicate.
func (db *DB) ByPred(pr Pred) []GroundAtom { return db.byPred[pr] }

// binding is a partial assignment of rule variables to constants.
type binding []Const

const unbound = Const(-1)

// match attempts to unify atom a (under binding b) with ground atom g,
// extending b in place. It returns false (possibly with b partially
// modified) on mismatch; callers must treat b as scratch and copy on
// success, or use the undo list.
func match(a Atom, g GroundAtom, b binding, undo *[]Var) bool {
	if a.Pred != g.Pred {
		return false
	}
	for i, t := range a.Terms {
		c := g.Args[i]
		if t.IsVar {
			switch b[t.Var] {
			case unbound:
				b[t.Var] = c
				*undo = append(*undo, t.Var)
			case c:
				// consistent
			default:
				return false
			}
		} else if t.Const != c {
			return false
		}
	}
	return true
}

// instantiate grounds atom a under a complete-enough binding. Panics on an
// unbound head variable, which AddRule's range restriction rules out.
func instantiate(a Atom, b binding) GroundAtom {
	args := make([]Const, len(a.Terms))
	for i, t := range a.Terms {
		if t.IsVar {
			if b[t.Var] == unbound {
				panic("datalog: unbound head variable")
			}
			args[i] = b[t.Var]
		} else {
			args[i] = t.Const
		}
	}
	return GroundAtom{Pred: a.Pred, Args: args}
}

// joinRule finds all instantiations of rule r whose body atoms are in db,
// requiring (when deltaAt ≥ 0) that body atom deltaAt matches within delta,
// and calls yield for each derived head. A false return from yield aborts
// the join (used for cancellation); joinRule reports whether it ran to
// completion.
func joinRule(r Rule, db *DB, delta *DB, deltaAt int, b binding, pos int, yield func(GroundAtom) bool) bool {
	if pos == len(r.Body) {
		return yield(instantiate(r.Head, b))
	}
	src := db
	if pos == deltaAt {
		src = delta
	}
	var undo []Var
	for _, g := range src.ByPred(r.Body[pos].Pred) {
		undo = undo[:0]
		if match(r.Body[pos], g, b, &undo) {
			if !joinRule(r, db, delta, deltaAt, b, pos+1, yield) {
				return false
			}
		}
		for _, v := range undo {
			b[v] = unbound
		}
	}
	return true
}

func newBinding(n int) binding {
	b := make(binding, n)
	for i := range b {
		b[i] = unbound
	}
	return b
}

// EvalNaive computes the least fixpoint by re-running every rule until no
// new atom appears.
func EvalNaive(p *Program) *DB {
	db := NewDB(p)
	for {
		changed := false
		for _, r := range p.Rules {
			b := newBinding(r.NumVars)
			joinRule(r, db, nil, -1, b, 0, func(g GroundAtom) bool {
				if db.Add(g) {
					changed = true
				}
				return true
			})
		}
		if !changed {
			return db
		}
	}
}

// EvalStats reports the work of one semi-naive evaluation.
type EvalStats struct {
	// Rounds is the number of fixpoint iterations (delta rounds), counting
	// the initial fact round.
	Rounds int
	// Atoms is the number of derived ground atoms.
	Atoms int
}

// RoundHook observes the wall time of each semi-naive delta round. Hooks
// keep the evaluator decoupled from any metrics package; a nil hook costs
// nothing (no clock reads).
type RoundHook func(d time.Duration)

// EvalSemiNaive computes the same fixpoint, joining each round only against
// atoms derived in the previous round (each body position takes a turn as
// the delta position).
func EvalSemiNaive(p *Program) *DB {
	return evalSemiNaiveFrom(p, nil)
}

// evalSemiNaiveFrom seeds the evaluation with extra ground atoms (used for
// EDB facts kept outside the program).
func evalSemiNaiveFrom(p *Program, seed *DB) *DB {
	db, _, _ := evalSemiNaiveCtx(context.Background(), p, seed, nil)
	return db
}

// cancelCheckStride bounds how many derivations a join may produce between
// context checks: small enough that a single exploding join stays
// responsive, large enough that ctx.Err is off the hot path.
const cancelCheckStride = 4096

// evalSemiNaiveCtx is the context-aware core. It checks ctx between rounds,
// between rules, and every cancelCheckStride derivations inside a join, so
// even a single pathological rule evaluation stops promptly. On
// cancellation it returns the partial database together with ctx's error;
// the caller must not treat the partial result as a verdict.
func evalSemiNaiveCtx(ctx context.Context, p *Program, seed *DB, hook RoundHook) (*DB, EvalStats, error) {
	db := NewDB(p)
	delta := NewDB(p)
	if seed != nil {
		seed.each(func(g GroundAtom) {
			if db.Add(g) {
				delta.Add(g)
			}
		})
	}
	stats := EvalStats{Rounds: 1}
	// Round 0: facts.
	for _, r := range p.Rules {
		if !r.IsFact() {
			continue
		}
		g := instantiate(r.Head, newBinding(r.NumVars))
		if db.Add(g) {
			delta.Add(g)
		}
	}
	derivations := 0
	for delta.Size() > 0 {
		if err := ctx.Err(); err != nil {
			stats.Atoms = db.Size()
			return db, stats, err
		}
		stats.Rounds++
		var roundStart time.Time
		if hook != nil {
			roundStart = time.Now()
		}
		next := NewDB(p)
		for _, r := range p.Rules {
			if r.IsFact() {
				continue
			}
			if err := ctx.Err(); err != nil {
				stats.Atoms = db.Size()
				return db, stats, err
			}
			for dAt := 0; dAt < len(r.Body); dAt++ {
				b := newBinding(r.NumVars)
				completed := joinRule(r, db, delta, dAt, b, 0, func(g GroundAtom) bool {
					if !db.Has(g) {
						next.Add(g)
					}
					derivations++
					if derivations%cancelCheckStride == 0 && ctx.Err() != nil {
						return false
					}
					return true
				})
				if !completed {
					stats.Atoms = db.Size()
					return db, stats, ctx.Err()
				}
			}
		}
		next.each(func(g GroundAtom) { db.Add(g) })
		delta = next
		if hook != nil {
			hook(time.Since(roundStart))
		}
	}
	stats.Atoms = db.Size()
	return db, stats, nil
}

// Query reports whether Prog ⊢ g, using semi-naive evaluation.
func Query(p *Program, g GroundAtom) bool {
	return EvalSemiNaive(p).Has(g)
}

// QueryCtx answers Prog ⊢ g under a context: cancellation aborts the
// evaluation mid-round and surfaces ctx's error. A true answer found before
// cancellation is still valid; false with a non-nil error means "unknown".
func QueryCtx(ctx context.Context, p *Program, g GroundAtom, hook RoundHook) (bool, EvalStats, error) {
	db, stats, err := evalSemiNaiveCtx(ctx, p, nil, hook)
	return db.Has(g), stats, err
}
