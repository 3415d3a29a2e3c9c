package absint

import (
	"paramra/internal/analysis"
	"paramra/internal/lang"
)

// Candidate-search budgets. The search is only a gate in front of the
// concrete replay, so the budgets favour cheapness over completeness:
// exceeding them means "no candidate found", never a wrong answer.
const (
	// maxCandidateNodes bounds DFS node expansions per thread.
	maxCandidateNodes = 1 << 14
	// maxLoadFanout bounds how many written-set values a single load
	// branches over; wider sets make the register unknown instead.
	maxLoadFanout = 8
)

// Candidate is a loop-free path of one thread from its entry to an `assert
// false` edge along which every assume and CAS is satisfiable with concrete
// values drawn from the abstract written-sets.
type Candidate struct {
	// ThreadIndex indexes Sys.Threads().
	ThreadIndex int
	// EnvThread is true when the violating thread is the env template (a
	// witness instance then needs at least one replica).
	EnvThread bool
}

// findCandidates scans every thread for loop-free constant-folded paths to
// an assert. The returned slice is ordered like Sys.Threads().
func findCandidates(res *analysis.Result) []Candidate {
	var out []Candidate
	hasEnv := res.Sys.Env != nil
	seen := map[*analysis.ThreadFacts]bool{}
	for i, tf := range res.Threads {
		if seen[tf] {
			continue
		}
		seen[tf] = true
		if candidateInThread(res, tf) {
			out = append(out, Candidate{
				ThreadIndex: i,
				EnvThread:   hasEnv && i == 0,
			})
		}
	}
	return out
}

// candValuation is a partial concrete register valuation: vals[r] is
// meaningful only when known[r]; unknown registers make conditions
// optimistically satisfiable (the concrete replay is the real check).
type candValuation struct {
	vals  []lang.Val
	known []bool
}

func (cv candValuation) set(r lang.RegID, v lang.Val, ok bool) candValuation {
	out := candValuation{
		vals:  append([]lang.Val(nil), cv.vals...),
		known: append([]bool(nil), cv.known...),
	}
	if int(r) >= 0 && int(r) < len(out.vals) {
		out.vals[r] = v
		out.known[r] = ok
	}
	return out
}

// candidateInThread runs a depth-first search for a loop-free assert path.
func candidateInThread(res *analysis.Result, tf *analysis.ThreadFacts) bool {
	numRegs := tf.Prog.NumRegs()
	g := tf.CFG
	dom := res.Sys.Dom
	onPath := make([]bool, g.NumNodes)
	budget := maxCandidateNodes

	var dfs func(pc lang.PC, cv candValuation) bool
	dfs = func(pc lang.PC, cv candValuation) bool {
		if budget <= 0 || onPath[pc] {
			return false
		}
		budget--
		onPath[pc] = true
		defer func() { onPath[pc] = false }()

		for _, e := range g.Out[pc] {
			switch e.Op.Kind {
			case lang.OpAssertFail:
				return true
			case lang.OpAssume:
				v, ok := evalMaybe(e.Op.E, cv)
				if ok && v == 0 {
					continue // definitely blocks on this valuation
				}
				if dfs(e.To, cv) {
					return true
				}
			case lang.OpAssign:
				v, ok := evalMaybe(e.Op.E, cv)
				if ok {
					v = v.Norm(dom)
				}
				if dfs(e.To, cv.set(e.Op.Reg, v, ok)) {
					return true
				}
			case lang.OpLoad:
				w := res.Written[e.Op.Var]
				if vals, ok := w.Exact(); ok && len(vals) <= maxLoadFanout {
					for _, v := range vals {
						if dfs(e.To, cv.set(e.Op.Reg, v, true)) {
							return true
						}
					}
				} else if dfs(e.To, cv.set(e.Op.Reg, 0, false)) {
					return true
				}
			case lang.OpCASOp:
				v, ok := evalMaybe(e.Op.E, cv)
				if ok && !res.VarCanHold(e.Op.Var, v) {
					continue // the expected value is never observable
				}
				if dfs(e.To, cv) {
					return true
				}
			default: // OpNop, OpStore
				if dfs(e.To, cv) {
					return true
				}
			}
		}
		return false
	}

	cv := candValuation{vals: make([]lang.Val, numRegs), known: make([]bool, numRegs)}
	for i := range cv.known {
		cv.known[i] = true // registers start at a known 0
	}
	return dfs(g.Entry, cv)
}

// evalMaybe evaluates e under a partial valuation; ok is false when the
// result depends on an unknown register. Short-circuit cases where one
// operand decides the result are folded, matching Expr.Eval.
func evalMaybe(e lang.Expr, cv candValuation) (lang.Val, bool) {
	switch e := e.(type) {
	case lang.ConstExpr:
		return e.V, true
	case lang.RegExpr:
		i := int(e.Reg)
		if i < 0 || i >= len(cv.vals) {
			return 0, true // out-of-range registers read as 0 (Expr.Eval)
		}
		return cv.vals[i], cv.known[i]
	case lang.UnExpr:
		val, ok := evalMaybe(e.E, cv)
		if !ok {
			return 0, false
		}
		return lang.UnExpr{Op: e.Op, E: lang.Num(val)}.Eval(nil), true
	case lang.BinExpr:
		l, lok := evalMaybe(e.L, cv)
		if e.Op == lang.OpAnd && lok && l == 0 {
			return 0, true
		}
		if e.Op == lang.OpOr && lok && l != 0 {
			return 1, true
		}
		r, rok := evalMaybe(e.R, cv)
		if !lok || !rok {
			return 0, false
		}
		return lang.BinExpr{Op: e.Op, L: lang.Num(l), R: lang.Num(r)}.Eval(nil), true
	default:
		return 0, false
	}
}
