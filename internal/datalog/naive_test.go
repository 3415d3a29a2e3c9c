package datalog

// EvalNaive is the reference evaluator the semi-naive engine is checked
// against: it computes the least fixpoint by re-running every rule over
// every atom until no new atom appears. It shares neither the store nor the
// join with the engine: atoms are kept by GroundAtom.Key in a map, and a
// rule's body is matched atom by atom against a plain list.
func EvalNaive(p *Program) *DB {
	set := map[string]GroundAtom{}
	var atoms []GroundAtom
	for {
		changed := false
		for _, r := range p.Rules {
			naiveJoin(r, atoms, make([]Const, r.NumVars), make([]bool, r.NumVars), 0, func(g GroundAtom) {
				if _, ok := set[g.Key()]; !ok {
					set[g.Key()] = g
					changed = true
				}
			})
		}
		if !changed {
			break
		}
		atoms = atoms[:0]
		for _, g := range set {
			atoms = append(atoms, g)
		}
	}
	db := NewDB(p)
	for _, g := range atoms {
		db.Add(g)
	}
	return db
}

// naiveJoin binds r's body from position pos on against atoms, calling emit
// with a fresh head for every complete binding.
func naiveJoin(r Rule, atoms []GroundAtom, val []Const, bound []bool, pos int, emit func(GroundAtom)) {
	if pos == len(r.Body) {
		args := make([]Const, len(r.Head.Terms))
		for i, t := range r.Head.Terms {
			if t.IsVar {
				args[i] = val[t.Var]
			} else {
				args[i] = t.Const
			}
		}
		emit(GroundAtom{Pred: r.Head.Pred, Args: args})
		return
	}
	a := r.Body[pos]
	for _, g := range atoms {
		if g.Pred != a.Pred {
			continue
		}
		saved := append([]Const(nil), val...)
		savedBound := append([]bool(nil), bound...)
		ok := true
		for i, t := range a.Terms {
			switch {
			case !t.IsVar:
				ok = t.Const == g.Args[i]
			case bound[t.Var]:
				ok = val[t.Var] == g.Args[i]
			default:
				val[t.Var], bound[t.Var] = g.Args[i], true
			}
			if !ok {
				break
			}
		}
		if ok {
			naiveJoin(r, atoms, val, bound, pos+1, emit)
		}
		copy(val, saved)
		copy(bound, savedBound)
	}
}
