package lang

import (
	"strings"
	"testing"
)

func TestProgramHelpers(t *testing.T) {
	p := &Program{Name: "p", Regs: []string{"a", "b"}}
	if p.NumRegs() != 2 {
		t.Errorf("NumRegs = %d", p.NumRegs())
	}
	if p.RegName(1) != "b" || p.RegName(7) != "r#7" {
		t.Errorf("RegName wrong: %q %q", p.RegName(1), p.RegName(7))
	}
	sys := &System{Vars: []string{"x"}}
	if sys.VarName(0) != "x" || sys.VarName(9) != "x#9" {
		t.Errorf("VarName wrong")
	}
	if _, ok := sys.VarByName("x"); !ok {
		t.Error("VarByName miss")
	}
	if _, ok := sys.VarByName("zz"); ok {
		t.Error("VarByName false hit")
	}
}

func TestOpSilentAndString(t *testing.T) {
	regs := []string{"r"}
	vars := []string{"x"}
	cases := []struct {
		op     Op
		silent bool
		want   string
	}{
		{Op{Kind: OpNop}, true, "nop"},
		{Op{Kind: OpAssume, E: Eq(Reg(0), Num(1))}, true, "assume r == 1"},
		{Op{Kind: OpAssertFail}, true, "assert false"},
		{Op{Kind: OpAssign, Reg: 0, E: Num(2)}, true, "r = 2"},
		{Op{Kind: OpLoad, Reg: 0, Var: 0}, false, "r = load x"},
		{Op{Kind: OpStore, Var: 0, E: Num(1)}, false, "store x 1"},
		{Op{Kind: OpCASOp, Var: 0, E: Num(0), E2: Num(1)}, false, "cas x 0 1"},
	}
	for _, tc := range cases {
		if got := tc.op.Silent(); got != tc.silent {
			t.Errorf("%s: Silent = %v", tc.want, got)
		}
		if got := tc.op.String(regs, vars); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestCFGString(t *testing.T) {
	sys := MustParseSystem(`
system s { vars x; domain 2; env t }
thread t { regs r; r = load x; store x 1 }
`)
	g := Compile(sys.Env)
	out := g.String()
	for _, want := range []string{"cfg t:", "r = load", "store"} {
		if !strings.Contains(out, want) {
			t.Errorf("CFG rendering missing %q:\n%s", want, out)
		}
	}
}

func TestStmtString(t *testing.T) {
	st := SeqOf(Store{Var: 0, E: Num(1)}, Assume{Cond: Eq(Reg(0), Num(0))})
	out := StmtString(st, []string{"r"}, []string{"x"})
	if !strings.Contains(out, "store x 1") || !strings.Contains(out, "assume r == 0") {
		t.Errorf("StmtString = %q", out)
	}
}

func TestValidateStatementErrors(t *testing.T) {
	sys := &System{Name: "s", Vars: []string{"x"}, Dom: 2}
	cases := []struct {
		name string
		body Stmt
	}{
		{"bad reg assign", Assign{Reg: 5, E: Num(0)}},
		{"bad var load", Load{Reg: 0, Var: 9}},
		{"bad var store", Store{Var: 9, E: Num(0)}},
		{"nil expr assume", Assume{Cond: nil}},
		{"bad reg in expr", Assign{Reg: 0, E: Reg(7)}},
		{"empty choice", Choice{}},
		{"nil stmt", nil},
		{"bad cas var", CAS{Var: 9, Expect: Num(0), New: Num(1)}},
		{"bad cas expr", CAS{Var: 0, Expect: Reg(9), New: Num(1)}},
		{"bad while cond", While{Cond: Reg(9), Body: Skip{}}},
		{"bad star body", Star{Body: Load{Reg: 9, Var: 0}}},
		{"bad seq member", Seq{Stmts: []Stmt{Skip{}, Load{Reg: 9, Var: 0}}}},
	}
	for _, tc := range cases {
		sys.Env = &Program{Name: "t", Regs: []string{"r"}, Body: tc.body}
		if err := sys.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Duplicate register names rejected.
	sys.Env = &Program{Name: "t", Regs: []string{"r", "r"}, Body: Skip{}}
	if err := sys.Validate(); err == nil {
		t.Error("duplicate registers accepted")
	}
}

func TestExprEvalUnknownOps(t *testing.T) {
	// Defensive zero results for malformed operators.
	if got := (UnExpr{Op: UnOp(99), E: Num(1)}).Eval(nil); got != 0 {
		t.Errorf("unknown unary = %d", got)
	}
	if got := (BinExpr{Op: BinOp(99), L: Num(1), R: Num(1)}).Eval(nil); got != 0 {
		t.Errorf("unknown binary = %d", got)
	}
}

func TestValNorm(t *testing.T) {
	const dom = 5
	for _, tc := range []struct {
		v    Val
		dom  int
		want Val
	}{
		{-1, dom, 4},
		{-dom, dom, 0},
		{-2*dom - 3, dom, 2},
		{0, dom, 0},
		{dom - 1, dom, dom - 1},
		{dom, dom, 0},
		{2*dom + 1, dom, 1},
		{0, 1, 0},
		{-7, 1, 0},
		// A non-positive domain leaves the value alone.
		{-3, 0, -3},
		{7, 0, 7},
		{7, -2, 7},
	} {
		if got := tc.v.Norm(tc.dom); got != tc.want {
			t.Errorf("Val(%d).Norm(%d) = %d, want %d", tc.v, tc.dom, got, tc.want)
		}
	}
}
