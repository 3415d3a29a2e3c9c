package datalog

import (
	"context"
	"sort"
	"strings"
)

// Cache Datalog (§4 of the paper): inference with a bounded working set.
//
//	Add:  an instantiated rule may fire only when all its body atoms are in
//	      the Cache; the head is added to the Cache.
//	Drop: any atom may be dropped from the Cache non-deterministically.
//
// Prog ⊢_k g asks whether g is inferable by a computation during which the
// Cache never exceeds k atoms. Standard Datalog is the k = ∞, never-drop
// special case.

// cacheState is a canonical encoding of a cache (sorted atom keys).
type cacheState struct {
	atoms map[string]GroundAtom
}

func (c cacheState) key() string {
	keys := make([]string, 0, len(c.atoms))
	for k := range c.atoms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

func (c cacheState) clone() cacheState {
	out := cacheState{atoms: make(map[string]GroundAtom, len(c.atoms))}
	for k, v := range c.atoms {
		out.atoms[k] = v
	}
	return out
}

// db adapts a cacheState to the join machinery: its atoms on top of the
// extensional facts, when there are any.
func (c cacheState) db(p *Program, edb *DB) *DB {
	db := over(p, edb)
	for _, g := range c.atoms {
		db.Add(g)
	}
	return db
}

// over returns an empty database over p's predicates that sits on edb, or
// on nothing when edb is nil.
func over(p *Program, edb *DB) *DB {
	if edb == nil {
		return NewDB(p)
	}
	return on(edb, nil)
}

// QueryCache decides Prog ⊢_k g by breadth-first search over cache states.
// The search is exponential in k in the worst case — it is the semantics,
// not the algorithm, of the paper (the efficient route is the Lemma 4.2
// translation to linear Datalog); it doubles as the reference oracle for
// translation tests.
func QueryCache(p *Program, g GroundAtom, k int) bool {
	return QueryCacheEDB(p, g, k, nil)
}

// QueryCacheEDB is QueryCache with a set of extensional facts that are
// always available to rule bodies without occupying cache slots (the makeP
// encoding's join tables: an EDB fact can be re-derived at any time at no
// cost, so exempting it does not change the semantics). Every cache state's
// database sits on edb, which is never copied or written.
func QueryCacheEDB(p *Program, g GroundAtom, k int, edb *DB) bool {
	if k <= 0 {
		return false
	}
	gKey := g.Key()
	init := cacheState{atoms: map[string]GroundAtom{}}
	seen := map[string]bool{init.key(): true}
	queue := []cacheState{init}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]

		// Add successors: every head derivable from the current cache.
		var derived []GroundAtom
		curDB := cur.db(p, edb)
		for i := range p.Rules {
			curDB.joinAll(&p.Rules[i], func(h GroundAtom) bool {
				derived = append(derived, GroundAtom{Pred: h.Pred, Args: append([]Const(nil), h.Args...)})
				return true
			})
		}
		for _, h := range derived {
			hk := h.Key()
			// Inferring an atom adds it to the Cache, so the bound applies
			// to the goal too: it needs a free slot.
			if _, in := cur.atoms[hk]; in || len(cur.atoms) >= k {
				continue
			}
			if hk == gKey {
				return true
			}
			ns := cur.clone()
			ns.atoms[hk] = h
			nk := ns.key()
			if !seen[nk] {
				seen[nk] = true
				queue = append(queue, ns)
			}
		}
		// Drop successors.
		for ak := range cur.atoms {
			ns := cur.clone()
			delete(ns.atoms, ak)
			nk := ns.key()
			if !seen[nk] {
				seen[nk] = true
				queue = append(queue, ns)
			}
		}
	}
	return false
}

// MinCacheSize returns the least k ≤ kMax with Prog ⊢_k g, or -1 if none.
// Inference is monotone in k, so linear search from below finds the minimum.
func MinCacheSize(p *Program, g GroundAtom, kMax int) int {
	return MinCacheSizeEDB(p, g, kMax, nil)
}

// MinCacheSizeEDB is MinCacheSize with cache-exempt extensional facts.
func MinCacheSizeEDB(p *Program, g GroundAtom, kMax int, edb *DB) int {
	if _, hit, _, _ := run(context.Background(), over(p, edb), p.Rules, &g, nil); !hit {
		return -1 // not derivable at any cache size
	}
	for k := 1; k <= kMax; k++ {
		if QueryCacheEDB(p, g, k, edb) {
			return k
		}
	}
	return -1
}

// SplitEDB separates the facts of the marked extensional predicates out of
// the program, returning the reduced program and the facts as a DB. Rules
// may still reference the EDB predicates in their bodies.
func SplitEDB(p *Program, edbPreds map[Pred]bool) (*Program, *DB) {
	core := NewProgram()
	core.Preds = p.Preds
	core.Consts = p.Consts
	db := NewDB(core)
	for _, r := range p.Rules {
		if r.IsFact() && edbPreds[r.Head.Pred] {
			db.joinAll(&r, func(g GroundAtom) bool {
				db.Add(g)
				return true
			})
			continue
		}
		core.Rules = append(core.Rules, r)
	}
	return core, db
}
