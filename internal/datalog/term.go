// Package datalog is a hand-rolled Datalog engine supporting:
//
//   - standard bottom-up evaluation (semi-naive);
//   - the linear-Datalog syntactic restriction of Gottlob & Papadimitriou
//     (query evaluation in PSPACE), used by the paper's upper bound;
//   - Cache Datalog (§4 of the paper): inference where the set of derived
//     ground atoms live at any time is bounded by a cache size k, with
//     non-deterministic Drop;
//   - the Lemma 4.2 translation from Cache Datalog to linear Datalog.
//
// Terms are either variables or interned constants; atoms are flat
// predicate applications. It is the fixpoint backend for the paper's makeP
// encoding (package encode), whose instances share most of their program:
// a fact store with packed keys and a first-argument index, a model that
// serves as the read-only base of many continuations, and a query that
// stops at its goal keep that backend's cost in the part each instance
// adds (see eval.go).
package datalog

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
)

// Const is an interned constant (index into Program.Consts).
type Const int

// Var is a rule variable (index local to its rule).
type Var int

// Term is a variable or a constant in a rule atom.
type Term struct {
	// IsVar selects between Var and Const.
	IsVar bool
	Var   Var
	Const Const
}

// C returns a constant term.
func C(c Const) Term { return Term{Const: c} }

// V returns a variable term.
func V(v Var) Term { return Term{IsVar: true, Var: v} }

// Pred is a predicate symbol (index into Program.Preds).
type Pred int

// Atom is a predicate applied to terms (possibly with variables).
type Atom struct {
	Pred  Pred
	Terms []Term
}

// GroundAtom is a fully instantiated atom. Args index Program.Consts.
type GroundAtom struct {
	Pred Pred
	Args []Const
}

// Key returns a canonical string identity of the ground atom.
func (g GroundAtom) Key() string {
	b := make([]byte, 0, 4+4*len(g.Args))
	b = strconv.AppendInt(b, int64(g.Pred), 10)
	b = append(b, '(')
	for i, a := range g.Args {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	b = append(b, ')')
	return string(b)
}

// Rule is head :- body_1, …, body_t. A rule with an empty body is a fact
// schema (usually fully ground).
type Rule struct {
	Head Atom
	Body []Atom
	// NumVars is the number of distinct variables in the rule; variables
	// must be numbered 0..NumVars-1.
	NumVars int
}

// IsFact reports whether the rule has no body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// IsLinear reports whether the rule has at most one body atom.
func (r Rule) IsLinear() bool { return len(r.Body) <= 1 }

// PredDecl declares a predicate symbol.
type PredDecl struct {
	Name  string
	Arity int
}

// Program is a Datalog program: predicate declarations, an interned
// constant table, and rules.
type Program struct {
	Preds  []PredDecl
	Consts []string
	Rules  []Rule

	constIdx map[string]Const
	predIdx  map[string]Pred
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{constIdx: map[string]Const{}, predIdx: map[string]Pred{}}
}

// AddPred declares (or returns the existing) predicate with the given name
// and arity.
func (p *Program) AddPred(name string, arity int) (Pred, error) {
	if id, ok := p.predIdx[name]; ok {
		if p.Preds[id].Arity != arity {
			return 0, fmt.Errorf("predicate %s redeclared with arity %d (was %d)",
				name, arity, p.Preds[id].Arity)
		}
		return id, nil
	}
	id := Pred(len(p.Preds))
	p.Preds = append(p.Preds, PredDecl{Name: name, Arity: arity})
	p.predIdx[name] = id
	return id, nil
}

// MustPred is AddPred for construction code with static names.
func (p *Program) MustPred(name string, arity int) Pred {
	id, err := p.AddPred(name, arity)
	if err != nil {
		panic(err)
	}
	return id
}

// Intern returns the Const for the given symbol, interning it on first use.
func (p *Program) Intern(sym string) Const {
	if id, ok := p.constIdx[sym]; ok {
		return id
	}
	id := Const(len(p.Consts))
	p.Consts = append(p.Consts, sym)
	p.constIdx[sym] = id
	return id
}

// AddRule validates the rule (see CheckRule), then appends it.
func (p *Program) AddRule(r Rule) error {
	if err := p.CheckRule(r); err != nil {
		return err
	}
	p.Rules = append(p.Rules, r)
	return nil
}

// CheckRule validates a rule against p's declarations without adding it:
// predicates and constants must be declared, arities must match, variables
// must be numbered below NumVars, and every head variable must occur in the
// body (range restriction).
func (p *Program) CheckRule(r Rule) error {
	check := func(a Atom) error {
		if int(a.Pred) < 0 || int(a.Pred) >= len(p.Preds) {
			return fmt.Errorf("unknown predicate id %d", int(a.Pred))
		}
		if len(a.Terms) != p.Preds[a.Pred].Arity {
			return fmt.Errorf("predicate %s used with %d terms, arity %d",
				p.Preds[a.Pred].Name, len(a.Terms), p.Preds[a.Pred].Arity)
		}
		for _, t := range a.Terms {
			if t.IsVar {
				if int(t.Var) < 0 || int(t.Var) >= r.NumVars {
					return fmt.Errorf("variable %d out of range (NumVars=%d)", int(t.Var), r.NumVars)
				}
			} else if int(t.Const) < 0 || int(t.Const) >= len(p.Consts) {
				return fmt.Errorf("constant %d not interned", int(t.Const))
			}
		}
		return nil
	}
	if err := check(r.Head); err != nil {
		return fmt.Errorf("head: %w", err)
	}
	// Range restriction: every head variable must occur in the body.
	bodyVars := make([]bool, r.NumVars)
	for i, b := range r.Body {
		if err := check(b); err != nil {
			return fmt.Errorf("body[%d]: %w", i, err)
		}
		for _, t := range b.Terms {
			if t.IsVar {
				bodyVars[t.Var] = true
			}
		}
	}
	for _, t := range r.Head.Terms {
		if t.IsVar && !bodyVars[t.Var] {
			return fmt.Errorf("head variable %d not bound by the body (range restriction)", int(t.Var))
		}
	}
	return nil
}

// Extend returns a new program with p's declarations and rules, followed by
// extra, which must be valid over those declarations. p is left unchanged.
func (p *Program) Extend(extra []Rule) *Program {
	return &Program{
		Preds:    p.Preds[:len(p.Preds):len(p.Preds)],
		Consts:   p.Consts[:len(p.Consts):len(p.Consts)],
		Rules:    append(p.Rules[:len(p.Rules):len(p.Rules)], extra...),
		constIdx: maps.Clone(p.constIdx),
		predIdx:  maps.Clone(p.predIdx),
	}
}

// MustRule is AddRule that panics on error.
func (p *Program) MustRule(r Rule) {
	if err := p.AddRule(r); err != nil {
		panic(err)
	}
}

// Fact appends a ground fact.
func (p *Program) Fact(pred Pred, args ...Const) error {
	terms := make([]Term, len(args))
	for i, a := range args {
		terms[i] = C(a)
	}
	return p.AddRule(Rule{Head: Atom{Pred: pred, Terms: terms}})
}

// IsLinear reports whether every rule is linear or a fact (the restriction
// under which query evaluation is PSPACE, used by Theorem 4.1).
func (p *Program) IsLinear() bool {
	for _, r := range p.Rules {
		if !r.IsLinear() {
			return false
		}
	}
	return true
}

// AtomString renders an atom for diagnostics.
func (p *Program) AtomString(a Atom) string {
	var b strings.Builder
	b.WriteString(p.Preds[a.Pred].Name)
	b.WriteByte('(')
	for i, t := range a.Terms {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.IsVar {
			fmt.Fprintf(&b, "X%d", int(t.Var))
		} else {
			b.WriteString(p.Consts[t.Const])
		}
	}
	b.WriteByte(')')
	return b.String()
}

// GroundString renders a ground atom with symbolic constants.
func (p *Program) GroundString(g GroundAtom) string {
	var b strings.Builder
	b.WriteString(p.Preds[g.Pred].Name)
	b.WriteByte('(')
	for i, a := range g.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Consts[a])
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(p.AtomString(r.Head))
		if len(r.Body) > 0 {
			b.WriteString(" :- ")
			for i, a := range r.Body {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(p.AtomString(a))
			}
		}
		b.WriteString(".\n")
	}
	return b.String()
}
