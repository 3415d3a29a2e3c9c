package encode

import (
	"fmt"

	"paramra/internal/datalog"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// freshVars allocates rule variables.
type freshVars struct{ n int }

func (f *freshVars) next() datalog.Term {
	t := datalog.V(datalog.Var(f.n))
	f.n++
	return t
}

// etpAtom assembles an etp atom from a pc constant, register terms and view
// terms.
func (b *builder) etpAtom(pc lang.PC, regs, views []datalog.Term) datalog.Atom {
	terms := make([]datalog.Term, 0, 1+len(regs)+len(views))
	terms = append(terms, datalog.C(b.pcC[pc]))
	terms = append(terms, regs...)
	terms = append(terms, views...)
	return datalog.Atom{Pred: b.etp, Terms: terms}
}

// msgAtom assembles an emp/dmp atom.
func (b *builder) msgAtom(pred datalog.Pred, x lang.VarID, val datalog.Term, views []datalog.Term) datalog.Atom {
	terms := make([]datalog.Term, 0, 2+len(views))
	terms = append(terms, datalog.C(b.varConst(x)), val)
	terms = append(terms, views...)
	return datalog.Atom{Pred: pred, Terms: terms}
}

// valuations enumerates assignments of values to the given registers at the
// given program point. Without hints every register ranges over the full
// domain (Dom^len(regs) assignments); with hints each register ranges only
// over the values the abstract interpretation allows at pc, which can shrink
// the grounding by orders of magnitude on guarded code.
func (b *builder) valuations(pc lang.PC, regs []lang.RegID, f func(map[lang.RegID]lang.Val)) {
	choices := make([][]lang.Val, len(regs))
	for i, r := range regs {
		choices[i] = b.regChoices(pc, r)
	}
	assign := map[lang.RegID]lang.Val{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(regs) {
			f(assign)
			return
		}
		for _, d := range choices[i] {
			assign[regs[i]] = d
			rec(i + 1)
		}
	}
	rec(0)
}

// regChoices returns the candidate values for one register at pc: the
// hint-restricted set when it is exact, the full domain otherwise. The
// returned values are normalized into [0, Dom) and deduplicated, in
// ascending order for deterministic rule emission.
func (b *builder) regChoices(pc lang.PC, r lang.RegID) []lang.Val {
	if b.hints != nil {
		if vals, ok := b.hints.AllowedAt(pc, r); ok {
			seen := make(map[lang.Val]bool, len(vals))
			for _, v := range vals {
				seen[v.Norm(b.sys.Dom)] = true
			}
			out := make([]lang.Val, 0, len(seen))
			for d := 0; d < b.sys.Dom; d++ {
				if seen[lang.Val(d)] {
					out = append(out, lang.Val(d))
				}
			}
			return out
		}
	}
	full := make([]lang.Val, b.sys.Dom)
	for d := range full {
		full[d] = lang.Val(d)
	}
	return full
}

// evalUnder evaluates e under a partial valuation (unmentioned registers
// read as 0; by construction e only reads mentioned registers).
func (b *builder) evalUnder(e lang.Expr, assign map[lang.RegID]lang.Val) lang.Val {
	rv := make([]lang.Val, b.numRegs)
	for r, v := range assign {
		rv[r] = v
	}
	return e.Eval(rv)
}

// regTerms builds the register term vector: positions fixed by assign become
// constants, the rest fresh variables.
func (b *builder) regTerms(f *freshVars, assign map[lang.RegID]lang.Val) []datalog.Term {
	out := make([]datalog.Term, b.numRegs)
	for r := 0; r < b.numRegs; r++ {
		if v, ok := assign[lang.RegID(r)]; ok {
			out[r] = datalog.C(b.valC[v])
		} else {
			out[r] = f.next()
		}
	}
	return out
}

func freshN(f *freshVars, n int) []datalog.Term {
	out := make([]datalog.Term, n)
	for i := range out {
		out[i] = f.next()
	}
	return out
}

// emitEnvRules translates every env CFG edge into Datalog rules, following
// the simplified semantics exactly:
//
//	etp'(…)           :- etp(…)                          (silent ops)
//	etp'[r↦D](pc',J̄)  :- etp(pc,R̄,W̄), emp(x,D,V̄), joins  (env load)
//	etp'[r↦D](pc',J̄)  :- etp(pc,R̄,W̄), dmp(x,D,V̄), joins  (dis load)
//	emp(x,d,W̄[x↦N])   :- etp(pc,R̄,W̄), pjoin(Wx,t0,N)     (env store)
//	bad()             :- etp(pc,_,_)                      (assert false)
//
// Assume/assign edges are grounded over the valuations of the registers the
// expression reads (the paper's ⟦e⟧ interpretation tables).
func (b *builder) emitEnvRules() error {
	for pc := 0; pc < b.envCFG.NumNodes; pc++ {
		for _, e := range b.envCFG.Out[pc] {
			switch e.Op.Kind {
			case lang.OpNop:
				f := &freshVars{}
				regs := freshN(f, b.numRegs)
				views := freshN(f, b.numVars)
				b.addRule(datalog.Rule{
					Head:    b.etpAtom(e.To, regs, views),
					Body:    []datalog.Atom{b.etpAtom(e.From, regs, views)},
					NumVars: f.n,
				})

			case lang.OpAssume:
				b.valuations(e.From, lang.ExprRegs(e.Op.E), func(assign map[lang.RegID]lang.Val) {
					if b.evalUnder(e.Op.E, assign) == 0 {
						return
					}
					f := &freshVars{}
					regs := b.regTerms(f, assign)
					views := freshN(f, b.numVars)
					b.addRule(datalog.Rule{
						Head:    b.etpAtom(e.To, regs, views),
						Body:    []datalog.Atom{b.etpAtom(e.From, regs, views)},
						NumVars: f.n,
					})
				})

			case lang.OpAssign:
				b.valuations(e.From, lang.ExprRegs(e.Op.E), func(assign map[lang.RegID]lang.Val) {
					d := b.evalUnder(e.Op.E, assign).Norm(b.sys.Dom)
					f := &freshVars{}
					regs := b.regTerms(f, assign)
					views := freshN(f, b.numVars)
					head := make([]datalog.Term, len(regs))
					copy(head, regs)
					head[e.Op.Reg] = datalog.C(b.valC[d])
					b.addRule(datalog.Rule{
						Head:    b.etpAtom(e.To, head, views),
						Body:    []datalog.Atom{b.etpAtom(e.From, regs, views)},
						NumVars: f.n,
					})
				})

			case lang.OpLoad:
				b.emitLoad(e, b.emp, b.pjoin)
				b.emitLoad(e, b.dmp, b.djoin)

			case lang.OpStore:
				b.emitStore(e)

			case lang.OpAssertFail:
				f := &freshVars{}
				regs := freshN(f, b.numRegs)
				views := freshN(f, b.numVars)
				b.addRule(datalog.Rule{
					Head:    datalog.Atom{Pred: b.bad},
					Body:    []datalog.Atom{b.etpAtom(e.From, regs, views)},
					NumVars: f.n,
				})

			case lang.OpCASOp:
				return fmt.Errorf("encode: env CAS at pc %d (outside the decidable class)", pc)
			}
		}
	}
	// unsafe() :- bad().
	b.addRule(datalog.Rule{
		Head: datalog.Atom{Pred: b.unsafeP},
		Body: []datalog.Atom{{Pred: b.bad}},
	})
	return nil
}

// emitLoad emits the load rule reading from msgPred (emp or dmp), using
// xJoin (pjoin or djoin) for the loaded variable's view component and tmax
// elsewhere.
func (b *builder) emitLoad(e lang.Edge, msgPred, xJoin datalog.Pred) {
	f := &freshVars{}
	regs := freshN(f, b.numRegs)
	w := freshN(f, b.numVars)  // thread view
	vv := freshN(f, b.numVars) // message view
	j := freshN(f, b.numVars)  // joined view
	d := f.next()              // loaded value

	body := []datalog.Atom{
		b.etpAtom(e.From, regs, w),
		b.msgAtom(msgPred, e.Op.Var, d, vv),
	}
	for i := 0; i < b.numVars; i++ {
		join := b.tmax
		if i == int(e.Op.Var) {
			join = xJoin
		}
		body = append(body, datalog.Atom{Pred: join, Terms: []datalog.Term{w[i], vv[i], j[i]}})
	}
	head := make([]datalog.Term, len(regs))
	copy(head, regs)
	head[e.Op.Reg] = d
	b.addRule(datalog.Rule{
		Head:    b.etpAtom(e.To, head, j),
		Body:    body,
		NumVars: f.n,
	})
}

// emitStore emits, per valuation of the stored expression's registers, the
// etp-successor rule and the emp-generation rule.
func (b *builder) emitStore(e lang.Edge) {
	x := e.Op.Var
	b.valuations(e.From, lang.ExprRegs(e.Op.E), func(assign map[lang.RegID]lang.Val) {
		d := b.evalUnder(e.Op.E, assign).Norm(b.sys.Dom)
		for _, genMsg := range []bool{false, true} {
			f := &freshVars{}
			regs := b.regTerms(f, assign)
			w := freshN(f, b.numVars)
			n := f.next() // bumped timestamp Plus(⌊Wx⌋)
			body := []datalog.Atom{
				b.etpAtom(e.From, regs, w),
				// pjoin(Wx, t0, N) computes N = (⌊max(Wx,0)⌋)⁺ = ⌊Wx⌋⁺.
				{Pred: b.pjoin, Terms: []datalog.Term{w[x], datalog.C(b.timeC[simplified.Int(0)]), n}},
			}
			nw := make([]datalog.Term, len(w))
			copy(nw, w)
			nw[x] = n
			var head datalog.Atom
			if genMsg {
				head = b.msgAtom(b.emp, x, datalog.C(b.valC[d]), nw)
			} else {
				head = b.etpAtom(e.To, regs, nw)
			}
			b.addRule(datalog.Rule{Head: head, Body: body, NumVars: f.n})
		}
	})
}

func (b *builder) addRule(r datalog.Rule) {
	if err := b.prog.AddRule(r); err != nil {
		panic(fmt.Sprintf("encode: bad rule: %v", err))
	}
}

// empGround renders a simplified env message as a ground emp atom.
func (b *builder) empGround(m *simplified.AMsg) (datalog.GroundAtom, error) {
	args := []datalog.Const{b.varConst(m.Var), b.valC[m.Val]}
	for _, t := range m.View {
		c, ok := b.timeC[t]
		if !ok {
			return datalog.GroundAtom{}, fmt.Errorf("encode: timestamp %s outside universe", t)
		}
		args = append(args, c)
	}
	return datalog.GroundAtom{Pred: b.emp, Args: args}, nil
}

// checked validates r over the prefix's declarations.
func (b *builder) checked(r datalog.Rule) datalog.Rule {
	if err := b.prog.CheckRule(r); err != nil {
		panic(fmt.Sprintf("encode: bad rule: %v", err))
	}
	return r
}

// chainStart is the first batch of every instance's chain: the fact
// step0().
func (b *builder) chainStart() []datalog.Rule {
	return []datalog.Rule{b.checked(datalog.Rule{Head: datalog.Atom{Pred: b.steps[0]}})}
}

// emitStep encodes step j of a guessed dis run as its batch of the chain:
// step_{j+1}() :- step_j() [, emp(E)], with a dis message it stores
// becoming available as a dmp fact conditioned on step_{j+1}, or, for the
// terminating assert, unsafe() :- step_j() (env-side asserts reach unsafe()
// through bad()). The query of every instance is unsafe().
func (b *builder) emitStep(j int, st *simplified.SkeletonStep) ([]datalog.Rule, error) {
	prev := b.steps[j]
	if st.Assert {
		return []datalog.Rule{b.checked(datalog.Rule{
			Head: datalog.Atom{Pred: b.unsafeP},
			Body: []datalog.Atom{{Pred: prev}},
		})}, nil
	}
	next := b.steps[j+1]
	body := []datalog.Atom{{Pred: prev}}
	if st.ReadEnv != nil {
		eg, err := b.empGround(st.ReadEnv)
		if err != nil {
			return nil, err
		}
		terms := make([]datalog.Term, len(eg.Args))
		for i, a := range eg.Args {
			terms[i] = datalog.C(a)
		}
		body = append(body, datalog.Atom{Pred: b.emp, Terms: terms})
	}
	rules := []datalog.Rule{b.checked(datalog.Rule{Head: datalog.Atom{Pred: next}, Body: body})}
	if st.Stored != nil {
		margs := []datalog.Term{datalog.C(b.varConst(st.Stored.Var)), datalog.C(b.valC[st.Stored.Val])}
		for _, t := range st.Stored.View {
			c, ok := b.timeC[t]
			if !ok {
				return nil, fmt.Errorf("encode: stored timestamp %s outside universe", t)
			}
			margs = append(margs, datalog.C(c))
		}
		rules = append(rules, b.checked(datalog.Rule{
			Head: datalog.Atom{Pred: b.dmp, Terms: margs},
			Body: []datalog.Atom{{Pred: next}},
		}))
	}
	return rules, nil
}
