package analysis

import (
	"testing"

	"paramra/internal/lang"
)

func vals(vs ...lang.Val) []lang.Val { return vs }

func TestVSetBasics(t *testing.T) {
	b := Bottom()
	if !b.IsEmpty() || b.Size() != 0 || b.Contains(0) {
		t.Fatalf("bottom misbehaves: %v", b)
	}
	s := FromValues(vals(3, 1, 3, 2))
	if s.String() != "{1,2,3}" {
		t.Fatalf("FromValues dedup/sort: got %s", s)
	}
	if !s.Contains(2) || s.Contains(0) {
		t.Fatalf("Contains wrong on %s", s)
	}
	lo, hi, ok := s.Bounds()
	if !ok || lo != 1 || hi != 3 {
		t.Fatalf("Bounds: %d %d %v", lo, hi, ok)
	}
}

func TestVSetWidening(t *testing.T) {
	var many []lang.Val
	for i := 0; i < maxExact+5; i++ {
		many = append(many, lang.Val(i*2))
	}
	s := FromValues(many)
	if !s.Widened() {
		t.Fatalf("expected widening past %d elements, got %s", maxExact, s)
	}
	lo, hi, _ := s.Bounds()
	if lo != 0 || hi != lang.Val((maxExact+4)*2) {
		t.Fatalf("hull bounds wrong: [%d..%d]", lo, hi)
	}
	// Widened sets over-approximate: they contain interior non-members.
	if !s.Contains(1) {
		t.Fatal("hull must contain interior values")
	}
}

func TestJoinAndIntersect(t *testing.T) {
	a := FromValues(vals(0, 2))
	b := FromValues(vals(2, 5))
	j := Join(a, b)
	if j.String() != "{0,2,5}" {
		t.Fatalf("join: %s", j)
	}
	i := Intersect(a, b)
	if i.String() != "{2}" {
		t.Fatalf("intersect: %s", i)
	}
	if !Intersect(a, FromValues(vals(9))).IsEmpty() {
		t.Fatal("disjoint intersect must be empty")
	}
	r := Range(0, 10)
	ie := Intersect(FromValues(vals(3, 42)), r)
	if ie.String() != "{3}" {
		t.Fatalf("exact∩range: %s", ie)
	}
}

func TestNorm(t *testing.T) {
	s := FromValues(vals(-1, 0, 5, 7)).Norm(4)
	// -1 ≡ 3, 5 ≡ 1, 7 ≡ 3 (mod 4)
	if s.String() != "{0,1,3}" {
		t.Fatalf("norm: %s", s)
	}
	wide := Range(0, 100).Norm(4)
	if wide.String() != "[0..3]" {
		t.Fatalf("norm of wide range: %s", wide)
	}
	if got := Range(6, 7).Norm(4); got.String() != "{2,3}" {
		t.Fatalf("norm re-enumeration: %s", got)
	}
}

func TestEvalExpr(t *testing.T) {
	regs := []VSet{FromValues(vals(0, 1)), Singleton(3)}
	add := evalExpr(lang.Bin(lang.OpAdd, lang.Reg(0), lang.Reg(1)), regs)
	if add.String() != "{3,4}" {
		t.Fatalf("add: %s", add)
	}
	eq := evalExpr(lang.Eq(lang.Reg(0), lang.Num(1)), regs)
	if eq.String() != "{0,1}" {
		t.Fatalf("eq can be either: %s", eq)
	}
	eqDef := evalExpr(lang.Eq(lang.Reg(1), lang.Num(3)), regs)
	if eqDef.String() != "{1}" {
		t.Fatalf("definite eq: %s", eqDef)
	}
	neDef := evalExpr(lang.Ne(lang.Reg(1), lang.Num(0)), regs)
	if neDef.String() != "{1}" {
		t.Fatalf("definite ne: %s", neDef)
	}
	// Short-circuit: 0 && anything is 0.
	and := evalExpr(lang.Bin(lang.OpAnd, lang.Num(0), lang.Reg(0)), regs)
	if and.String() != "{0}" {
		t.Fatalf("and short-circuit: %s", and)
	}
	or := evalExpr(lang.Bin(lang.OpOr, lang.Reg(0), lang.Num(0)), regs)
	if or.String() != "{0,1}" {
		t.Fatalf("or: %s", or)
	}
}

func TestRefineTrue(t *testing.T) {
	regs := []VSet{FromValues(vals(0, 1, 2)), FromValues(vals(0, 1))}
	out := refineTrue(lang.Eq(lang.Reg(0), lang.Num(2)), regs)
	if out[0].String() != "{2}" {
		t.Fatalf("eq refinement: %s", out[0])
	}
	out = refineTrue(lang.Ne(lang.Reg(0), lang.Num(0)), regs)
	if out[0].String() != "{1,2}" {
		t.Fatalf("ne refinement: %s", out[0])
	}
	out = refineTrue(lang.Bin(lang.OpLt, lang.Reg(0), lang.Num(2)), regs)
	if out[0].String() != "{0,1}" {
		t.Fatalf("lt refinement: %s", out[0])
	}
	out = refineTrue(lang.Bin(lang.OpAnd,
		lang.Eq(lang.Reg(0), lang.Num(1)), lang.Eq(lang.Reg(1), lang.Num(0))), regs)
	if out[0].String() != "{1}" || out[1].String() != "{0}" {
		t.Fatalf("and refinement: %s %s", out[0], out[1])
	}
	// Refining with an unsatisfiable condition empties the register.
	out = refineTrue(lang.Eq(lang.Reg(1), lang.Num(7)), regs)
	if !out[1].IsEmpty() {
		t.Fatalf("unsat refinement should be bottom: %s", out[1])
	}
	// Negation routes through refineFalse.
	out = refineTrue(lang.Not(lang.Eq(lang.Reg(0), lang.Num(0))), regs)
	if out[0].String() != "{1,2}" {
		t.Fatalf("not-eq refinement: %s", out[0])
	}
}
