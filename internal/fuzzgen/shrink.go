package fuzzgen

import (
	"paramra/internal/lang"
)

// ShrinkOptions bounds the delta-debugging minimizer.
type ShrinkOptions struct {
	// MaxChecks caps predicate evaluations (default 800).
	MaxChecks int
}

// Shrink minimizes sys while pred keeps holding (pred must hold on sys
// itself, which is never mutated; every candidate passed to pred is valid
// per (*lang.System).Validate). The reduction order follows the classic
// delta-debugging ladder — drop whole threads, then drop or flatten
// statements, then shrink constants and the domain — restarting after every
// accepted reduction so later passes see the smaller system.
func Shrink(sys *lang.System, pred func(*lang.System) bool, opts ShrinkOptions) *lang.System {
	if opts.MaxChecks <= 0 {
		opts.MaxChecks = 800
	}
	checks := 0
	try := func(cand *lang.System) bool {
		if checks >= opts.MaxChecks {
			return false
		}
		if cand == nil || cand.Validate() != nil {
			return false
		}
		checks++
		return pred(cand)
	}

	cur := sys
	for {
		next, ok := shrinkOnce(cur, try)
		if !ok || checks >= opts.MaxChecks {
			return cur
		}
		cur = next
	}
}

// shrinkOnce attempts one accepted reduction, trying candidates from the
// most to the least aggressive. It reports whether a candidate was accepted.
func shrinkOnce(sys *lang.System, try func(*lang.System) bool) (*lang.System, bool) {
	// Pass 1: drop whole threads.
	if sys.Env != nil {
		if cand := cloneSys(sys, func(c *lang.System) { c.Env = nil }); len(sys.Dis) > 0 && try(cand) {
			return cand, true
		}
	}
	for i := range sys.Dis {
		i := i
		cand := cloneSys(sys, func(c *lang.System) {
			c.Dis = append(append([]*lang.Program{}, c.Dis[:i]...), c.Dis[i+1:]...)
		})
		if (sys.Env != nil || len(sys.Dis) > 1) && try(cand) {
			return cand, true
		}
	}

	// Pass 2: statement-level reductions, one program at a time.
	for ti, p := range sys.Threads() {
		for _, body := range stmtVariants(p.Body) {
			if cand := replaceBody(sys, ti, body); try(cand) {
				return cand, true
			}
		}
	}

	// Pass 3: expression-level and scalar reductions.
	for ti, p := range sys.Threads() {
		for _, body := range exprVariants(p.Body) {
			if cand := replaceBody(sys, ti, body); try(cand) {
				return cand, true
			}
		}
	}
	if sys.Dom > 2 {
		if cand := cloneSys(sys, func(c *lang.System) {
			c.Dom = c.Dom - 1
			if int(c.Init) >= c.Dom {
				c.Init = 0
			}
		}); try(cand) {
			return cand, true
		}
	}
	if sys.Init != 0 {
		if cand := cloneSys(sys, func(c *lang.System) { c.Init = 0 }); try(cand) {
			return cand, true
		}
	}

	// Pass 4: drop now-unused registers and shared variables (renumbering
	// the surviving references).
	if cand := dropUnusedDecls(sys); cand != nil && try(cand) {
		return cand, true
	}
	return sys, false
}

// cloneSys shallow-copies the system (program pointers shared) and applies
// edit to the copy. Programs are immutable under shrinking — every
// statement rewrite builds fresh programs — so sharing is safe.
func cloneSys(sys *lang.System, edit func(*lang.System)) *lang.System {
	c := *sys
	c.Dis = append([]*lang.Program{}, sys.Dis...)
	c.Vars = append([]string{}, sys.Vars...)
	edit(&c)
	return &c
}

// replaceBody returns a copy of sys where thread ti (in Threads() order:
// env first, then dis) runs a program with the given body.
func replaceBody(sys *lang.System, ti int, body lang.Stmt) *lang.System {
	return cloneSys(sys, func(c *lang.System) {
		old := sys.Threads()[ti]
		np := &lang.Program{Name: old.Name, Regs: append([]string{}, old.Regs...), Body: body}
		if sys.Env != nil && ti == 0 {
			c.Env = np
			return
		}
		di := ti
		if sys.Env != nil {
			di--
		}
		c.Dis[di] = np
	})
}

// stmtVariants yields one-step structural reductions of st: removing a
// statement, replacing a compound by one of its parts, or unwrapping a
// loop. Variants are ordered from the most aggressive to the least.
func stmtVariants(st lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	switch st := st.(type) {
	case lang.Seq:
		for i := range st.Stmts {
			rest := make([]lang.Stmt, 0, len(st.Stmts)-1)
			rest = append(rest, st.Stmts[:i]...)
			rest = append(rest, st.Stmts[i+1:]...)
			out = append(out, lang.SeqOf(rest...))
		}
		for i, c := range st.Stmts {
			for _, v := range stmtVariants(c) {
				repl := append([]lang.Stmt{}, st.Stmts...)
				repl[i] = v
				out = append(out, lang.SeqOf(repl...))
			}
		}
	case lang.Choice:
		for _, b := range st.Branches {
			out = append(out, b) // commit to one branch
		}
		if len(st.Branches) > 2 {
			for i := range st.Branches {
				rest := append(append([]lang.Stmt{}, st.Branches[:i]...), st.Branches[i+1:]...)
				out = append(out, lang.ChoiceOf(rest...))
			}
		}
		for i, b := range st.Branches {
			for _, v := range stmtVariants(b) {
				repl := append([]lang.Stmt{}, st.Branches...)
				repl[i] = v
				out = append(out, lang.ChoiceOf(repl...))
			}
		}
	case lang.Star:
		out = append(out, lang.Skip{}, st.Body)
		for _, v := range stmtVariants(st.Body) {
			out = append(out, lang.Star{Body: v})
		}
	case lang.While:
		out = append(out, lang.Skip{}, st.Body)
		for _, v := range stmtVariants(st.Body) {
			out = append(out, lang.While{Cond: st.Cond, Body: v})
		}
	case lang.Skip:
		// nothing below skip
	default:
		out = append(out, lang.Skip{})
	}
	return out
}

// exprVariants yields copies of st with one embedded expression simplified.
func exprVariants(st lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	switch st := st.(type) {
	case lang.Seq:
		for i, c := range st.Stmts {
			for _, v := range exprVariants(c) {
				repl := append([]lang.Stmt{}, st.Stmts...)
				repl[i] = v
				out = append(out, lang.SeqOf(repl...))
			}
		}
	case lang.Choice:
		for i, b := range st.Branches {
			for _, v := range exprVariants(b) {
				repl := append([]lang.Stmt{}, st.Branches...)
				repl[i] = v
				out = append(out, lang.ChoiceOf(repl...))
			}
		}
	case lang.Star:
		for _, v := range exprVariants(st.Body) {
			out = append(out, lang.Star{Body: v})
		}
	case lang.While:
		for _, e := range simplerExprs(st.Cond) {
			out = append(out, lang.While{Cond: e, Body: st.Body})
		}
		for _, v := range exprVariants(st.Body) {
			out = append(out, lang.While{Cond: st.Cond, Body: v})
		}
	case lang.Assume:
		for _, e := range simplerExprs(st.Cond) {
			out = append(out, lang.Assume{Cond: e})
		}
	case lang.Assign:
		for _, e := range simplerExprs(st.E) {
			out = append(out, lang.Assign{Reg: st.Reg, E: e})
		}
	case lang.Store:
		for _, e := range simplerExprs(st.E) {
			out = append(out, lang.Store{Var: st.Var, E: e})
		}
	case lang.CAS:
		for _, e := range simplerExprs(st.Expect) {
			out = append(out, lang.CAS{Var: st.Var, Expect: e, New: st.New})
		}
		for _, e := range simplerExprs(st.New) {
			out = append(out, lang.CAS{Var: st.Var, Expect: st.Expect, New: e})
		}
	}
	return out
}

// simplerExprs yields strictly smaller replacements for e: constants first,
// then sub-expressions, then one-step reductions inside.
func simplerExprs(e lang.Expr) []lang.Expr {
	var out []lang.Expr
	switch e := e.(type) {
	case lang.ConstExpr:
		if e.V != 0 {
			out = append(out, lang.Num(0))
			if e.V > 1 {
				out = append(out, lang.Num(e.V-1))
			}
		}
	case lang.RegExpr:
		out = append(out, lang.Num(0))
	case lang.UnExpr:
		out = append(out, lang.Num(0), lang.Num(1), e.E)
		for _, s := range simplerExprs(e.E) {
			out = append(out, lang.UnExpr{Op: e.Op, E: s})
		}
	case lang.BinExpr:
		out = append(out, lang.Num(0), lang.Num(1), e.L, e.R)
		for _, s := range simplerExprs(e.L) {
			out = append(out, lang.Bin(e.Op, s, e.R))
		}
		for _, s := range simplerExprs(e.R) {
			out = append(out, lang.Bin(e.Op, e.L, s))
		}
	}
	return out
}

// dropUnusedDecls removes registers and shared variables no statement
// references, renumbering the surviving references. Returns nil when
// nothing is removable.
func dropUnusedDecls(sys *lang.System) *lang.System {
	varUsed := make([]bool, len(sys.Vars))
	for _, p := range sys.Threads() {
		lang.MarkVars(p.Body, varUsed)
	}
	changed := false
	keepVar := 0
	varMap := make([]lang.VarID, len(sys.Vars))
	var newVars []string
	for i, used := range varUsed {
		if used || keepVar == 0 && i == len(sys.Vars)-1 && len(newVars) == 0 {
			// Keep at least one variable: Validate requires a non-empty table.
			varMap[i] = lang.VarID(len(newVars))
			newVars = append(newVars, sys.Vars[i])
			if used {
				keepVar++
			}
		} else {
			changed = true
		}
	}

	out := cloneSys(sys, func(c *lang.System) { c.Vars = newVars })
	rewrite := func(p *lang.Program) *lang.Program {
		regUsed := make([]bool, len(p.Regs))
		lang.MarkRegs(p.Body, regUsed)
		regMap := make([]lang.RegID, len(p.Regs))
		var newRegs []string
		for i, used := range regUsed {
			if used {
				regMap[i] = lang.RegID(len(newRegs))
				newRegs = append(newRegs, p.Regs[i])
			} else {
				changed = true
			}
		}
		return &lang.Program{Name: p.Name, Regs: newRegs, Body: lang.RemapStmt(p.Body, regMap, varMap)}
	}
	if out.Env != nil {
		out.Env = rewrite(out.Env)
	}
	for i, d := range out.Dis {
		out.Dis[i] = rewrite(d)
	}
	if !changed {
		return nil
	}
	return out
}
