package lang

// Builder helpers for constructing Com programs in Go code. These are thin
// sugar over the AST; If and While desugar exactly as described in §1 of the
// paper ("Conditionals if and iteratives while can be derived").

// SeqOf sequences the given statements, flattening nested sequences and
// eliding skips. An empty argument list yields Skip.
func SeqOf(stmts ...Stmt) Stmt {
	flat := make([]Stmt, 0, len(stmts))
	for _, s := range stmts {
		switch s := s.(type) {
		case nil, Skip:
			// drop
		case Seq:
			flat = append(flat, s.Stmts...)
		default:
			flat = append(flat, s)
		}
	}
	switch len(flat) {
	case 0:
		return Skip{}
	case 1:
		return flat[0]
	default:
		return Seq{Stmts: flat}
	}
}

// ChoiceOf builds the non-deterministic choice of the given branches.
func ChoiceOf(branches ...Stmt) Stmt {
	if len(branches) == 1 {
		return branches[0]
	}
	return Choice{Branches: branches}
}

// If desugars to (assume cond; then) ⊕ (assume !cond; els).
func If(cond Expr, then, els Stmt) Stmt {
	return ChoiceOf(
		SeqOf(Assume{Cond: cond}, then),
		SeqOf(Assume{Cond: Not(cond)}, els),
	)
}

// When is If without an else branch.
func When(cond Expr, then Stmt) Stmt { return If(cond, then, Skip{}) }

// NewProgramBuilder returns a builder for a named program.
func NewProgramBuilder(name string) *ProgramBuilder {
	return &ProgramBuilder{prog: &Program{Name: name}}
}

// ProgramBuilder incrementally declares registers and assembles a Program.
type ProgramBuilder struct {
	prog *Program
}

// Reg declares (or returns the existing) register with the given name.
func (b *ProgramBuilder) Reg(name string) RegID {
	for i, r := range b.prog.Regs {
		if r == name {
			return RegID(i)
		}
	}
	b.prog.Regs = append(b.prog.Regs, name)
	return RegID(len(b.prog.Regs) - 1)
}

// Build finalizes the program with the given body statements.
func (b *ProgramBuilder) Build(body ...Stmt) *Program {
	b.prog.Body = SeqOf(body...)
	return b.prog
}

// NewSystemBuilder returns a builder for a system with the given name and
// data-domain size.
func NewSystemBuilder(name string, dom int) *SystemBuilder {
	return &SystemBuilder{sys: &System{Name: name, Dom: dom}}
}

// SystemBuilder incrementally declares shared variables and thread programs.
type SystemBuilder struct {
	sys *System
}

// Var declares (or returns the existing) shared variable with the given name.
func (b *SystemBuilder) Var(name string) VarID {
	for i, v := range b.sys.Vars {
		if v == name {
			return VarID(i)
		}
	}
	b.sys.Vars = append(b.sys.Vars, name)
	return VarID(len(b.sys.Vars) - 1)
}

// Env sets the environment-thread program.
func (b *SystemBuilder) Env(p *Program) *SystemBuilder {
	b.sys.Env = p
	return b
}

// Dis appends a distinguished-thread program.
func (b *SystemBuilder) Dis(p *Program) *SystemBuilder {
	b.sys.Dis = append(b.sys.Dis, p)
	return b
}

// Build returns the assembled system.
func (b *SystemBuilder) Build() *System { return b.sys }
