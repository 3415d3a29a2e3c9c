// Package lang implements the Com while-language of Krishna et al.,
// "Parameterized Verification under Release Acquire is PSPACE-complete"
// (PODC 2022), §1:
//
//	c ::= skip | assume e(r̄) | assert false | r := e(r̄)
//	    | c; c | c ⊕ c | c* | r := x | x := r | cas(x, r1, r2)
//
// Programs compute over thread-local registers and interact with shared
// variables via loads, stores, and atomic compare-and-swap. The package
// provides the AST, a concrete syntax with lexer/parser and printer,
// compilation to control-flow graphs, loop unrolling, and the syntactic
// classifications used by the paper (acyc, nocas).
package lang

import (
	"fmt"
	"strings"
)

// Val is an element of the finite data domain Dom. The paper works with an
// arbitrary finite domain; we use a prefix {0, …, n-1} of the integers.
type Val int

// Norm maps an arbitrary integer into the data domain {0,…,dom-1}. The paper
// requires expression interpretations ⟦e⟧ : Dom^n → Dom; every engine and
// analysis realizes this by reducing results modulo the domain size whenever
// a value is committed to a register or to memory. A dom <= 0 leaves v
// unchanged.
func (v Val) Norm(dom int) Val {
	d := Val(dom)
	if d <= 0 {
		return v
	}
	return ((v % d) + d) % d
}

// RegID indexes a thread-local register within a Program's register table.
type RegID int

// VarID indexes a shared variable within a System's variable table.
type VarID int

// Stmt is a statement of Com. The concrete statement types below correspond
// one-to-one to the grammar productions; If and While are provided as sugar
// by the parser and builder helpers (they desugar to Choice/Star/Assume).
type Stmt interface {
	isStmt()
	// Position returns the statement's source position (the zero Pos for
	// statements constructed programmatically).
	Position() Pos
	// writeTo pretty-prints the statement at the given indentation into b,
	// using the register table regs and variable table vars for names.
	writeTo(b *strings.Builder, indent int, regs, vars []string)
}

// Skip is the no-op statement.
type Skip struct {
	Pos Pos
}

// Assume blocks unless Cond evaluates to a non-zero value.
type Assume struct {
	Cond Expr
	Pos  Pos
}

// AssertFail is the `assert false` statement; reaching it is the safety
// violation the verification problem asks about.
type AssertFail struct {
	Pos Pos
}

// Assign is the local assignment r := e(r̄).
type Assign struct {
	Reg RegID
	E   Expr
	Pos Pos
}

// Seq is sequential composition c1; c2; …; cn.
type Seq struct {
	Stmts []Stmt
	Pos   Pos
}

// Choice is non-deterministic choice c1 ⊕ c2 ⊕ … ⊕ cn.
type Choice struct {
	Branches []Stmt
	Pos      Pos
}

// Star is iteration c*: execute the body any number of times (possibly zero).
type Star struct {
	Body Stmt
	Pos  Pos
}

// While is the guarded loop `while cond { body }`. It is compiled with both
// guard edges leaving the loop head directly (enter on cond, exit on
// ¬cond), so a waiting thread never commits to leaving the loop before the
// exit guard holds — unlike the naive desugaring (assume cond; body)*;
// assume ¬cond, which introduces a stuck intermediate state.
type While struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// Load is the shared-memory read r := x.
type Load struct {
	Reg RegID
	Var VarID
	Pos Pos
}

// Store is the shared-memory write x := e. The paper's grammar writes x := r;
// permitting a register expression is a conservative generalization (the
// value is still computed thread-locally before the store).
type Store struct {
	Var VarID
	E   Expr
	Pos Pos
}

// CAS is the atomic compare-and-swap cas(x, e1, e2): atomically load x,
// block unless the value equals e1, then store e2. The load and store
// timestamps are adjacent (nothing intervenes in modification order).
type CAS struct {
	Var         VarID
	Expect, New Expr
	Pos         Pos
}

func (Skip) isStmt()       {}
func (Assume) isStmt()     {}
func (AssertFail) isStmt() {}
func (Assign) isStmt()     {}
func (Seq) isStmt()        {}
func (Choice) isStmt()     {}
func (Star) isStmt()       {}
func (While) isStmt()      {}
func (Load) isStmt()       {}
func (Store) isStmt()      {}
func (CAS) isStmt()        {}

// Position implements Stmt.
func (s Skip) Position() Pos       { return s.Pos }
func (s Assume) Position() Pos     { return s.Pos }
func (s AssertFail) Position() Pos { return s.Pos }
func (s Assign) Position() Pos     { return s.Pos }
func (s Seq) Position() Pos        { return s.Pos }
func (s Choice) Position() Pos     { return s.Pos }
func (s Star) Position() Pos       { return s.Pos }
func (s While) Position() Pos      { return s.Pos }
func (s Load) Position() Pos       { return s.Pos }
func (s Store) Position() Pos      { return s.Pos }
func (s CAS) Position() Pos        { return s.Pos }

// WithPos returns st with its source position set to pos (the statement's
// own position only; children are unaffected).
func WithPos(st Stmt, pos Pos) Stmt {
	switch st := st.(type) {
	case Skip:
		st.Pos = pos
		return st
	case Assume:
		st.Pos = pos
		return st
	case AssertFail:
		st.Pos = pos
		return st
	case Assign:
		st.Pos = pos
		return st
	case Seq:
		st.Pos = pos
		return st
	case Choice:
		st.Pos = pos
		return st
	case Star:
		st.Pos = pos
		return st
	case While:
		st.Pos = pos
		return st
	case Load:
		st.Pos = pos
		return st
	case Store:
		st.Pos = pos
		return st
	case CAS:
		st.Pos = pos
		return st
	default:
		return st
	}
}

// Program is a single thread's code together with its register table.
// Register names are local to the program; RegID values index Regs.
type Program struct {
	Name string
	Regs []string
	Body Stmt
}

// NumRegs returns the number of registers the program declares.
func (p *Program) NumRegs() int { return len(p.Regs) }

// RegName returns the name of register r, or a synthetic name if out of range.
func (p *Program) RegName(r RegID) string {
	if int(r) >= 0 && int(r) < len(p.Regs) {
		return p.Regs[r]
	}
	return fmt.Sprintf("r#%d", int(r))
}

// System is a parameterized system: a finite set of shared variables over a
// finite data domain, one program replicated across arbitrarily many env
// threads, and a fixed list of distinguished (dis) thread programs.
type System struct {
	Name string
	// Vars is the shared-variable table; VarID values index it.
	Vars []string
	// Dom is the size of the data domain {0, …, Dom-1}.
	Dom int
	// Init is the initial value of every shared variable (and register).
	Init Val
	// Env is the program run by the unboundedly many environment threads.
	// It may be nil for systems consisting only of dis threads.
	Env *Program
	// Dis are the distinguished threads' programs, in order.
	Dis []*Program
}

// VarName returns the name of shared variable v.
func (s *System) VarName(v VarID) string {
	if int(v) >= 0 && int(v) < len(s.Vars) {
		return s.Vars[v]
	}
	return fmt.Sprintf("x#%d", int(v))
}

// VarByName returns the VarID of the named shared variable.
func (s *System) VarByName(name string) (VarID, bool) {
	for i, v := range s.Vars {
		if v == name {
			return VarID(i), true
		}
	}
	return 0, false
}

// Threads returns all programs of the system: Env first (if present),
// followed by the dis programs.
func (s *System) Threads() []*Program {
	var out []*Program
	if s.Env != nil {
		out = append(out, s.Env)
	}
	return append(out, s.Dis...)
}

// Validate checks internal consistency: non-empty variable table, positive
// domain, in-range register and variable references, and in-domain constants.
func (s *System) Validate() error {
	if len(s.Vars) == 0 {
		return fmt.Errorf("system %s: no shared variables", s.Name)
	}
	if s.Dom < 1 {
		return fmt.Errorf("system %s: domain size %d < 1", s.Name, s.Dom)
	}
	if s.Init < 0 || int(s.Init) >= s.Dom {
		return fmt.Errorf("system %s: initial value %d outside domain [0,%d)", s.Name, s.Init, s.Dom)
	}
	seen := make(map[string]bool, len(s.Vars))
	for _, v := range s.Vars {
		if seen[v] {
			return fmt.Errorf("system %s: duplicate shared variable %q", s.Name, v)
		}
		seen[v] = true
	}
	// Distinct programs must have distinct names (a single program may be
	// referenced by several clauses); Print relies on this.
	byName := map[string]*Program{}
	for _, p := range s.Threads() {
		if p == nil {
			return fmt.Errorf("system %s: nil program", s.Name)
		}
		if prev, ok := byName[p.Name]; ok && prev != p {
			return fmt.Errorf("system %s: two distinct programs named %q", s.Name, p.Name)
		}
		byName[p.Name] = p
		if err := s.validateProgram(p); err != nil {
			return err
		}
	}
	return nil
}

func (s *System) validateProgram(p *Program) error {
	if p == nil {
		return fmt.Errorf("system %s: nil program", s.Name)
	}
	seen := make(map[string]bool, len(p.Regs))
	for _, r := range p.Regs {
		if seen[r] {
			return fmt.Errorf("program %s: duplicate register %q", p.Name, r)
		}
		seen[r] = true
	}
	return s.validateStmt(p, p.Body)
}

func (s *System) validateStmt(p *Program, st Stmt) error {
	checkReg := func(r RegID) error {
		if int(r) < 0 || int(r) >= len(p.Regs) {
			return fmt.Errorf("program %s: register id %d out of range", p.Name, int(r))
		}
		return nil
	}
	checkVar := func(v VarID) error {
		if int(v) < 0 || int(v) >= len(s.Vars) {
			return fmt.Errorf("program %s: shared variable id %d out of range", p.Name, int(v))
		}
		return nil
	}
	checkExpr := func(e Expr) error {
		if e == nil {
			return fmt.Errorf("program %s: nil expression", p.Name)
		}
		for _, r := range exprRegs(e) {
			if err := checkReg(r); err != nil {
				return err
			}
		}
		return nil
	}
	switch st := st.(type) {
	case Skip, AssertFail:
		return nil
	case Assume:
		return checkExpr(st.Cond)
	case Assign:
		if err := checkReg(st.Reg); err != nil {
			return err
		}
		return checkExpr(st.E)
	case Seq:
		for _, c := range st.Stmts {
			if err := s.validateStmt(p, c); err != nil {
				return err
			}
		}
		return nil
	case Choice:
		if len(st.Branches) == 0 {
			return fmt.Errorf("program %s: empty choice", p.Name)
		}
		for _, c := range st.Branches {
			if err := s.validateStmt(p, c); err != nil {
				return err
			}
		}
		return nil
	case Star:
		return s.validateStmt(p, st.Body)
	case While:
		if err := checkExpr(st.Cond); err != nil {
			return err
		}
		return s.validateStmt(p, st.Body)
	case Load:
		if err := checkReg(st.Reg); err != nil {
			return err
		}
		return checkVar(st.Var)
	case Store:
		if err := checkVar(st.Var); err != nil {
			return err
		}
		return checkExpr(st.E)
	case CAS:
		if err := checkVar(st.Var); err != nil {
			return err
		}
		if err := checkExpr(st.Expect); err != nil {
			return err
		}
		return checkExpr(st.New)
	case nil:
		return fmt.Errorf("program %s: nil statement", p.Name)
	default:
		return fmt.Errorf("program %s: unknown statement type %T", p.Name, st)
	}
}
