package lang

// RemapExpr rebuilds e with register IDs mapped through regMap. A nil map is
// the identity and returns e itself.
func RemapExpr(e Expr, regMap []RegID) Expr {
	if regMap == nil {
		return e
	}
	switch e := e.(type) {
	case RegExpr:
		return RegExpr{Reg: regMap[e.Reg]}
	case UnExpr:
		return UnExpr{Op: e.Op, E: RemapExpr(e.E, regMap)}
	case BinExpr:
		return BinExpr{Op: e.Op, L: RemapExpr(e.L, regMap), R: RemapExpr(e.R, regMap)}
	default:
		return e
	}
}

// RemapStmt rebuilds st with register and shared-variable IDs mapped through
// regMap and varMap; a nil map is the identity. Source positions are kept,
// and st itself is never mutated.
func RemapStmt(st Stmt, regMap []RegID, varMap []VarID) Stmt {
	mr := func(r RegID) RegID {
		if regMap == nil {
			return r
		}
		return regMap[r]
	}
	mv := func(v VarID) VarID {
		if varMap == nil {
			return v
		}
		return varMap[v]
	}
	switch st := st.(type) {
	case Assume:
		return Assume{Cond: RemapExpr(st.Cond, regMap), Pos: st.Pos}
	case Assign:
		return Assign{Reg: mr(st.Reg), E: RemapExpr(st.E, regMap), Pos: st.Pos}
	case Seq:
		out := make([]Stmt, len(st.Stmts))
		for i, s := range st.Stmts {
			out[i] = RemapStmt(s, regMap, varMap)
		}
		return Seq{Stmts: out, Pos: st.Pos}
	case Choice:
		out := make([]Stmt, len(st.Branches))
		for i, b := range st.Branches {
			out[i] = RemapStmt(b, regMap, varMap)
		}
		return Choice{Branches: out, Pos: st.Pos}
	case Star:
		return Star{Body: RemapStmt(st.Body, regMap, varMap), Pos: st.Pos}
	case While:
		return While{Cond: RemapExpr(st.Cond, regMap), Body: RemapStmt(st.Body, regMap, varMap), Pos: st.Pos}
	case Load:
		return Load{Reg: mr(st.Reg), Var: mv(st.Var), Pos: st.Pos}
	case Store:
		return Store{Var: mv(st.Var), E: RemapExpr(st.E, regMap), Pos: st.Pos}
	case CAS:
		return CAS{Var: mv(st.Var), Expect: RemapExpr(st.Expect, regMap), New: RemapExpr(st.New, regMap), Pos: st.Pos}
	default: // Skip, AssertFail
		return st
	}
}

// MarkRegs sets used[r] for every register st assigns, loads into, or
// reads. Registers outside used are ignored (they read as 0).
func MarkRegs(st Stmt, used []bool) {
	mark := func(r RegID) {
		if int(r) >= 0 && int(r) < len(used) {
			used[r] = true
		}
	}
	markExpr := func(e Expr) {
		for _, r := range e.appendRegs(nil) {
			mark(r)
		}
	}
	switch st := st.(type) {
	case Assume:
		markExpr(st.Cond)
	case Assign:
		mark(st.Reg)
		markExpr(st.E)
	case Seq:
		for _, s := range st.Stmts {
			MarkRegs(s, used)
		}
	case Choice:
		for _, b := range st.Branches {
			MarkRegs(b, used)
		}
	case Star:
		MarkRegs(st.Body, used)
	case While:
		markExpr(st.Cond)
		MarkRegs(st.Body, used)
	case Load:
		mark(st.Reg)
	case Store:
		markExpr(st.E)
	case CAS:
		markExpr(st.Expect)
		markExpr(st.New)
	}
}

// MarkVars sets used[v] for every shared variable st loads, stores, or
// CASes.
func MarkVars(st Stmt, used []bool) {
	switch st := st.(type) {
	case Seq:
		for _, s := range st.Stmts {
			MarkVars(s, used)
		}
	case Choice:
		for _, b := range st.Branches {
			MarkVars(b, used)
		}
	case Star:
		MarkVars(st.Body, used)
	case While:
		MarkVars(st.Body, used)
	case Load:
		used[st.Var] = true
	case Store:
		used[st.Var] = true
	case CAS:
		used[st.Var] = true
	}
}
