package datalog

// EvalNaive is the reference evaluator the semi-naive engine is checked
// against: it computes the least fixpoint by re-running every rule until no
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
