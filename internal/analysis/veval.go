package analysis

import (
	"paramra/internal/lang"
)

// boolSet builds the possible outcomes of a comparison from "can it be
// true" / "can it be false".
func boolSet(canTrue, canFalse bool) VSet {
	switch {
	case canTrue && canFalse:
		return VSet{kind: vExact, vals: boolVals[:]}
	case canTrue:
		return Singleton(1)
	case canFalse:
		return Singleton(0)
	default:
		return VSet{}
	}
}

// evalExpr computes an over-approximation of the values e can take when the
// registers range over regs. No norm is applied — both engines evaluate
// expressions over the raw integers and reduce into the domain only when a
// value is committed (assignment, store, CAS operand), and the abstraction
// mirrors that exactly.
func evalExpr(e lang.Expr, regs []VSet) VSet {
	switch e := e.(type) {
	case lang.ConstExpr:
		return Singleton(e.V)
	case lang.RegExpr:
		if int(e.Reg) < 0 || int(e.Reg) >= len(regs) {
			return Singleton(0) // out-of-range registers read as 0 (Expr.Eval)
		}
		return regs[e.Reg]
	case lang.UnExpr:
		s := evalExpr(e.E, regs)
		if s.IsEmpty() {
			return VSet{}
		}
		switch e.Op {
		case lang.OpNot:
			return boolSet(s.canBeFalse(), s.canBeTrue())
		case lang.OpNeg:
			if vals, ok := s.Exact(); ok {
				neg := make([]lang.Val, len(vals))
				for i, v := range vals {
					neg[i] = -v
				}
				return FromValues(neg)
			}
			lo, hi, _ := s.Bounds()
			return Range(-hi, -lo)
		default:
			return Singleton(0)
		}
	case lang.BinExpr:
		return evalBin(e, regs)
	default:
		// Unknown expression forms cannot be bounded.
		return Range(minVal, maxVal)
	}
}

// minVal/maxVal are the "unbounded" interval endpoints. They are only hull
// markers — arithmetic on them saturates rather than wrapping.
const (
	minVal = lang.Val(-1 << 40)
	maxVal = lang.Val(1 << 40)
)

func satAdd(a, b lang.Val) lang.Val {
	c := a + b
	if c < minVal {
		return minVal
	}
	if c > maxVal {
		return maxVal
	}
	return c
}

func satMul(a, b lang.Val) lang.Val {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/a != b || c < minVal || c > maxVal {
		if (a > 0) == (b > 0) {
			return maxVal
		}
		return minVal
	}
	return c
}

func evalBin(e lang.BinExpr, regs []VSet) VSet {
	l := evalExpr(e.L, regs)
	if l.IsEmpty() {
		return VSet{}
	}

	// Short-circuit connectives mirror Expr.Eval: the right operand is only
	// consulted when the left one does not decide the result.
	switch e.Op {
	case lang.OpAnd:
		if !l.canBeTrue() {
			return Singleton(0)
		}
		r := evalExpr(e.R, regs)
		if r.IsEmpty() {
			return VSet{}
		}
		return boolSet(r.canBeTrue(), l.canBeFalse() || r.canBeFalse())
	case lang.OpOr:
		if !l.canBeFalse() {
			return Singleton(1)
		}
		r := evalExpr(e.R, regs)
		if r.IsEmpty() {
			return VSet{}
		}
		return boolSet(l.canBeTrue() || r.canBeTrue(), r.canBeFalse())
	}

	r := evalExpr(e.R, regs)
	if r.IsEmpty() {
		return VSet{}
	}

	lv, lok := l.Exact()
	rv, rok := r.Exact()
	// Pairwise-exact arithmetic while the product of cardinalities is small.
	exactPairs := lok && rok && len(lv)*len(rv) <= 2*maxExact

	llo, lhi, _ := l.Bounds()
	rlo, rhi, _ := r.Bounds()

	switch e.Op {
	case lang.OpAdd:
		if exactPairs {
			return pairwise(lv, rv, func(a, b lang.Val) lang.Val { return a + b })
		}
		return Range(satAdd(llo, rlo), satAdd(lhi, rhi))
	case lang.OpSub:
		if exactPairs {
			return pairwise(lv, rv, func(a, b lang.Val) lang.Val { return a - b })
		}
		return Range(satAdd(llo, -rhi), satAdd(lhi, -rlo))
	case lang.OpMul:
		if exactPairs {
			return pairwise(lv, rv, func(a, b lang.Val) lang.Val { return a * b })
		}
		c1, c2 := satMul(llo, rlo), satMul(llo, rhi)
		c3, c4 := satMul(lhi, rlo), satMul(lhi, rhi)
		return Range(min(min(c1, c2), min(c3, c4)), max(max(c1, c2), max(c3, c4)))
	case lang.OpEq:
		inter := Intersect(l, r)
		canEq := !inter.IsEmpty()
		canNe := !(l.Size() == 1 && r.Size() == 1 && llo == rlo && lok && rok)
		return boolSet(canEq, canNe)
	case lang.OpNe:
		inter := Intersect(l, r)
		canEq := !inter.IsEmpty()
		canNe := !(l.Size() == 1 && r.Size() == 1 && llo == rlo && lok && rok)
		return boolSet(canNe, canEq)
	case lang.OpLt:
		return boolSet(llo < rhi, lhi >= rlo)
	case lang.OpLe:
		return boolSet(llo <= rhi, lhi > rlo)
	case lang.OpGt:
		return boolSet(lhi > rlo, llo <= rhi)
	case lang.OpGe:
		return boolSet(lhi >= rlo, llo < rhi)
	default:
		return Singleton(0)
	}
}

func pairwise(lv, rv []lang.Val, f func(a, b lang.Val) lang.Val) VSet {
	out := make([]lang.Val, 0, len(lv)*len(rv))
	for _, a := range lv {
		for _, b := range rv {
			out = append(out, f(a, b))
		}
	}
	return FromValues(out)
}

// refineTrue strengthens the register sets with the knowledge that cond just
// evaluated truthy (an assume edge was taken). The result is a sound
// over-approximation: only facts that must hold on every passing execution
// are applied, and unrecognized condition shapes leave regs unchanged.
// Returns regs itself when nothing was refined (callers must not mutate).
func refineTrue(cond lang.Expr, regs []VSet) []VSet {
	switch e := cond.(type) {
	case lang.UnExpr:
		if e.Op == lang.OpNot {
			return refineFalse(e.E, regs)
		}
	case lang.RegExpr:
		// assume r: r is non-zero.
		return refineReg(regs, e.Reg, func(s VSet) VSet {
			if vals, ok := s.Exact(); ok {
				return filterVals(vals, func(v lang.Val) bool { return v != 0 })
			}
			return s
		})
	case lang.BinExpr:
		switch e.Op {
		case lang.OpAnd:
			// Both conjuncts evaluated truthy.
			return refineTrue(e.R, refineTrue(e.L, regs))
		case lang.OpOr:
			// At least one disjunct holds: join the two refinements.
			a := refineTrue(e.L, regs)
			b := refineTrue(e.R, regs)
			return joinRegs(a, b)
		case lang.OpEq, lang.OpNe, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe:
			return refineCompare(e.Op, e.L, e.R, regs)
		}
	}
	return regs
}

// refineFalse strengthens regs with the knowledge that cond evaluated to 0.
func refineFalse(cond lang.Expr, regs []VSet) []VSet {
	switch e := cond.(type) {
	case lang.UnExpr:
		if e.Op == lang.OpNot {
			return refineTrue(e.E, regs)
		}
	case lang.RegExpr:
		// !(r): r is zero.
		return refineReg(regs, e.Reg, func(s VSet) VSet {
			return Intersect(s, Singleton(0))
		})
	case lang.BinExpr:
		switch e.Op {
		case lang.OpAnd:
			// Short-circuit: either l is false, or l is true and r is false.
			a := refineFalse(e.L, regs)
			b := refineFalse(e.R, refineTrue(e.L, regs))
			return joinRegs(a, b)
		case lang.OpOr:
			// Both disjuncts evaluated falsy.
			return refineFalse(e.R, refineFalse(e.L, regs))
		case lang.OpEq:
			return refineCompare(lang.OpNe, e.L, e.R, regs)
		case lang.OpNe:
			return refineCompare(lang.OpEq, e.L, e.R, regs)
		case lang.OpLt:
			return refineCompare(lang.OpGe, e.L, e.R, regs)
		case lang.OpLe:
			return refineCompare(lang.OpGt, e.L, e.R, regs)
		case lang.OpGt:
			return refineCompare(lang.OpLe, e.L, e.R, regs)
		case lang.OpGe:
			return refineCompare(lang.OpLt, e.L, e.R, regs)
		}
	}
	return regs
}

// refineCompare handles `l op r` known-true where one side is a plain
// register read: the register's set keeps only values for which some value
// of the other side satisfies the comparison.
func refineCompare(op lang.BinOp, l, r lang.Expr, regs []VSet) []VSet {
	if lr, ok := l.(lang.RegExpr); ok {
		rhs := evalExpr(r, regs)
		regs = refineRegAgainst(regs, lr.Reg, op, rhs)
	}
	if rr, ok := r.(lang.RegExpr); ok {
		lhs := evalExpr(l, regs)
		regs = refineRegAgainst(regs, rr.Reg, flipCompare(op), lhs)
	}
	return regs
}

// flipCompare mirrors a comparison so the refined register reads on the left.
func flipCompare(op lang.BinOp) lang.BinOp {
	switch op {
	case lang.OpLt:
		return lang.OpGt
	case lang.OpLe:
		return lang.OpGe
	case lang.OpGt:
		return lang.OpLt
	case lang.OpGe:
		return lang.OpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

// refineRegAgainst keeps the values a of register reg for which ∃b ∈ rhs
// with `a op b`.
func refineRegAgainst(regs []VSet, reg lang.RegID, op lang.BinOp, rhs VSet) []VSet {
	if rhs.IsEmpty() {
		return regs
	}
	rlo, rhi, _ := rhs.Bounds()
	return refineReg(regs, reg, func(s VSet) VSet {
		switch op {
		case lang.OpEq:
			return Intersect(s, rhs)
		case lang.OpNe:
			if rhs.Size() == 1 {
				if vals, ok := s.Exact(); ok {
					return filterVals(vals, func(v lang.Val) bool { return v != rlo })
				}
			}
			return s
		case lang.OpLt:
			return clampBelow(s, rhi-1)
		case lang.OpLe:
			return clampBelow(s, rhi)
		case lang.OpGt:
			return clampAbove(s, rlo+1)
		case lang.OpGe:
			return clampAbove(s, rlo)
		default:
			return s
		}
	})
}

// clampBelow keeps the values of s that are <= bound.
func clampBelow(s VSet, bound lang.Val) VSet {
	if vals, ok := s.Exact(); ok {
		return filterVals(vals, func(v lang.Val) bool { return v <= bound })
	}
	lo, hi, _ := s.Bounds()
	return Range(lo, min(hi, bound))
}

// clampAbove keeps the values of s that are >= bound.
func clampAbove(s VSet, bound lang.Val) VSet {
	if vals, ok := s.Exact(); ok {
		return filterVals(vals, func(v lang.Val) bool { return v >= bound })
	}
	lo, hi, _ := s.Bounds()
	return Range(max(lo, bound), hi)
}

func filterVals(vals []lang.Val, keep func(lang.Val) bool) VSet {
	var out []lang.Val
	for _, v := range vals {
		if keep(v) {
			out = append(out, v)
		}
	}
	return FromValues(out)
}

// refineReg applies f to one register's set, cloning the slice only when
// the set actually changes.
func refineReg(regs []VSet, reg lang.RegID, f func(VSet) VSet) []VSet {
	if int(reg) < 0 || int(reg) >= len(regs) {
		return regs
	}
	refined := f(regs[reg])
	if Equal(refined, regs[reg]) {
		return regs
	}
	out := append([]VSet(nil), regs...)
	out[reg] = refined
	return out
}

// joinRegs joins two register vectors element-wise, returning a itself when
// b adds nothing to it (callers must not mutate).
func joinRegs(a, b []VSet) []VSet {
	var out []VSet
	for i := range a {
		j := Join(a[i], b[i])
		if out == nil {
			if Equal(j, a[i]) {
				continue
			}
			out = append([]VSet(nil), a...)
		}
		out[i] = j
	}
	if out == nil {
		return a
	}
	return out
}
