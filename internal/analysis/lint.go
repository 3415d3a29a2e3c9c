package analysis

import (
	"fmt"
	"sort"
	"strings"

	"paramra/internal/lang"
)

// Diagnostic is one lint finding. File is filled in by the caller (the
// analyses only see parsed systems); Thread is empty for system-level
// findings.
type Diagnostic struct {
	File   string
	Pos    lang.Pos
	Rule   string
	Thread string
	Msg    string
}

// String renders the diagnostic as "file:line:col: rule: [thread t] msg".
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.File != "" {
		b.WriteString(d.File)
		b.WriteByte(':')
	}
	b.WriteString(d.Pos.String())
	b.WriteString(": ")
	b.WriteString(d.Rule)
	b.WriteString(": ")
	if d.Thread != "" {
		fmt.Fprintf(&b, "thread %s: ", d.Thread)
	}
	b.WriteString(d.Msg)
	return b.String()
}

// Lint rule identifiers, as printed by ravet and used in golden tests.
const (
	RuleDeadStore         = "dead-store"
	RuleDeadLoad          = "dead-load"
	RuleUnreachableCode   = "unreachable-code"
	RuleUnreachableAssert = "unreachable-assert"
	RuleWriteOnlyVar      = "write-only-var"
	RuleAssumeFalse       = "assume-false"
	RuleCASNeverSucceeds  = "cas-never-succeeds"
	RuleUseBeforeDef      = "use-before-def"
	RuleEmptyLoop         = "empty-loop"
	// RuleReadOfNeverWrittenValue marks an equality test of a loaded value
	// against a constant no thread ever writes to the variable.
	RuleReadOfNeverWrittenValue = "read-of-never-written-value"
	// RuleWriteValueUnused marks a store whose value no reader ever
	// distinguishes: every load of the variable flows only into constant
	// comparisons, none of which mention the stored value.
	RuleWriteValueUnused = "write-value-unused"
)

// AnalyzeSystem runs every lint rule over the system and returns the
// findings sorted by position. Reachability and values come from the
// interference-closed value analysis (Analyze), so a finding holds for every
// replica count. It never mutates the system.
func AnalyzeSystem(sys *lang.System) []Diagnostic {
	l := &linter{sys: sys, res: Analyze(sys), fp: Footprint(sys)}
	for _, tf := range l.res.Programs {
		l.lintProgram(tf)
	}
	l.lintVars()
	l.lintWriteValues()
	// Line, column, then rule: the order ravet and the golden tests expect.
	sort.SliceStable(l.out, func(i, j int) bool {
		a, b := l.out[i], l.out[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Rule < b.Rule
	})
	return l.out
}

// Severity maps a lint rule to its reporting severity for machine-readable
// output: "info" for findings that make verification trivial rather than
// indicate a defect, "warning" for everything else.
func Severity(rule string) string {
	if rule == RuleUnreachableAssert {
		return "info"
	}
	return "warning"
}

type linter struct {
	sys *lang.System
	res *Result
	fp  *SystemFootprint
	out []Diagnostic
	// seen dedupes (rule, pos, msg) triples: several CFG edges may stem
	// from the same statement.
	seen map[string]bool
}

func (l *linter) report(pos lang.Pos, rule, thread, format string, args ...interface{}) {
	d := Diagnostic{Pos: pos, Rule: rule, Thread: thread, Msg: fmt.Sprintf(format, args...)}
	key := fmt.Sprintf("%s|%v|%s|%s", rule, pos, thread, d.Msg)
	if l.seen == nil {
		l.seen = map[string]bool{}
	}
	if l.seen[key] {
		return
	}
	l.seen[key] = true
	l.out = append(l.out, d)
}

func (l *linter) lintProgram(tf *ThreadFacts) {
	p, g := tf.Prog, tf.CFG
	live := LiveRegs(g)
	unassigned := UnassignedRegs(g)
	loadVar := loadOnlyRegs(g)
	regName := p.RegName
	varName := l.sys.VarName

	for _, edges := range g.Out {
		for _, e := range edges {
			if !tf.Reachable(e.From) {
				l.lintUnreachable(p, e)
				continue
			}
			switch e.Op.Kind {
			case lang.OpAssign:
				if live.DeadDef(e) {
					l.report(e.Op.Pos, RuleDeadStore, p.Name,
						"value assigned to register '%s' is never read", regName(e.Op.Reg))
				}
				l.lintComparisons(tf, loadVar, e)
				l.checkUses(p, e, unassigned, lang.ExprRegs(e.Op.E))
			case lang.OpLoad:
				if live.DeadDef(e) {
					l.report(e.Op.Pos, RuleDeadLoad, p.Name,
						"value loaded from '%s' into register '%s' is never read", varName(e.Op.Var), regName(e.Op.Reg))
				}
			case lang.OpAssume:
				// An assume that fails because it tests a loaded value its
				// variable never holds is reported once, as that cause.
				if !l.lintComparisons(tf, loadVar, e) && !tf.EvalAt(e.From, e.Op.E).canBeTrue() {
					l.report(e.Op.Pos, RuleAssumeFalse, p.Name,
						"condition '%s' is constant false: this path can never proceed", lang.ExprString(e.Op.E, p.Regs))
				}
				l.checkUses(p, e, unassigned, lang.ExprRegs(e.Op.E))
			case lang.OpStore:
				l.lintComparisons(tf, loadVar, e)
				l.checkUses(p, e, unassigned, lang.ExprRegs(e.Op.E))
			case lang.OpCASOp:
				l.lintCAS(tf, e)
				l.lintComparisons(tf, loadVar, e)
				l.checkUses(p, e, unassigned, append(lang.ExprRegs(e.Op.E), lang.ExprRegs(e.Op.E2)...))
			}
		}
	}
	l.lintEmptyLoops(p, p.Body)
}

// lintCAS flags a reachable CAS whose expected values are disjoint from
// everything ever written to its variable.
func (l *linter) lintCAS(tf *ThreadFacts, e lang.Edge) {
	expect := tf.EvalAt(e.From, e.Op.E).Norm(l.sys.Dom)
	if expect.IsEmpty() || !Intersect(expect, l.res.Written[e.Op.Var]).IsEmpty() {
		return
	}
	name := l.sys.VarName(e.Op.Var)
	if vals, ok := expect.Exact(); ok && len(vals) == 1 {
		l.report(e.Op.Pos, RuleCASNeverSucceeds, tf.Prog.Name,
			"cas on '%s' expects %d, a value the variable can never hold", name, int(vals[0]))
		return
	}
	l.report(e.Op.Pos, RuleCASNeverSucceeds, tf.Prog.Name,
		"cas on '%s' expects %s, values the variable can never hold", name, expect)
}

// checkUses flags registers read while possibly unassigned.
func (l *linter) checkUses(p *lang.Program, e lang.Edge, ua *MaybeUnassigned, used []lang.RegID) {
	for _, r := range used {
		if ua.Unassigned(e.From, r) {
			l.report(e.Op.Pos, RuleUseBeforeDef, p.Name,
				"register '%s' may be read before it is assigned (it reads as 0)", p.RegName(r))
		}
	}
}

// lintUnreachable reports an edge at an unreachable PC: an `assert false`
// there cannot be violated (if ALL asserts of the system are unreachable the
// parameterized verification is trivially SAFE, so the expensive procedure
// can be skipped — ravet points that out per assert), and any other
// statement there is dead code.
func (l *linter) lintUnreachable(p *lang.Program, e lang.Edge) {
	if e.Op.Kind == lang.OpAssertFail {
		l.report(e.Op.Pos, RuleUnreachableAssert, p.Name,
			"'assert false' is unreachable: the goal cannot be violated here, verification of this path is trivial")
		return
	}
	if e.Op.Pos.IsValid() && e.Op.Kind != lang.OpNop {
		l.report(e.Op.Pos, RuleUnreachableCode, p.Name, "unreachable code")
	}
}

// lintEmptyLoops walks the AST for loops with empty bodies.
func (l *linter) lintEmptyLoops(p *lang.Program, st lang.Stmt) {
	switch st := st.(type) {
	case lang.Seq:
		for _, s := range st.Stmts {
			l.lintEmptyLoops(p, s)
		}
	case lang.Choice:
		for _, s := range st.Branches {
			l.lintEmptyLoops(p, s)
		}
	case lang.Star:
		if emptyBody(st.Body) {
			l.report(st.Pos, RuleEmptyLoop, p.Name, "loop body is empty")
		} else {
			l.lintEmptyLoops(p, st.Body)
		}
	case lang.While:
		if emptyBody(st.Body) {
			l.report(st.Pos, RuleEmptyLoop, p.Name,
				"while body is empty (the loop only waits for the condition to turn false)")
		} else {
			l.lintEmptyLoops(p, st.Body)
		}
	}
}

func emptyBody(st lang.Stmt) bool {
	switch st := st.(type) {
	case lang.Skip:
		return true
	case lang.Seq:
		return len(st.Stmts) == 0
	default:
		return false
	}
}

// lintVars reports system-level shared-variable findings: variables that
// are written but never read. The diagnostic is attached to the first store
// found in thread order.
func (l *linter) lintVars() {
	for v := range l.sys.Vars {
		if !l.fp.WriteOnly(lang.VarID(v)) {
			continue
		}
		pos, thread := l.firstStore(lang.VarID(v))
		l.report(pos, RuleWriteOnlyVar, thread,
			"shared variable '%s' is written but never read", l.sys.VarName(lang.VarID(v)))
	}
}

func (l *linter) firstStore(v lang.VarID) (lang.Pos, string) {
	for _, p := range l.sys.Threads() {
		g := lang.Compile(p)
		for _, edges := range g.Out {
			for _, e := range edges {
				if e.Op.Kind == lang.OpStore && e.Op.Var == v {
					return e.Op.Pos, p.Name
				}
			}
		}
	}
	return lang.Pos{}, ""
}

// lintComparisons walks the edge's expressions for `r == c` tests where r
// only ever holds values loaded from one variable, c is never written to it,
// and r cannot hold c here either (it may still hold its initial 0 on a path
// that has not loaded it yet). It reports whether it found one.
func (l *linter) lintComparisons(tf *ThreadFacts, loadVar map[lang.RegID]lang.VarID, e lang.Edge) bool {
	p := tf.Prog
	found := false
	for _, expr := range edgeExprs(e) {
		walkExpr(expr, func(x lang.Expr) {
			b, ok := x.(lang.BinExpr)
			if !ok || b.Op != lang.OpEq {
				return
			}
			reg, c, ok := regConstSides(b)
			if !ok {
				return
			}
			v, tracked := loadVar[reg]
			if !tracked || l.res.Written[v].Contains(c) || tf.RegAt(e.From, reg).Contains(c) {
				return
			}
			found = true
			l.report(e.Op.Pos, RuleReadOfNeverWrittenValue, p.Name,
				"register '%s' holds a value loaded from '%s', which is never %d (written values: %s)",
				p.RegName(reg), l.sys.VarName(v), int(c), l.res.Written[v])
		})
	}
	return found
}

// lintWriteValues reports stores whose value no reader distinguishes. For a
// variable x it requires: every load of x lands in a register defined only
// by loads of x, and every use of those registers is an ==/!= test against a
// constant (or a CAS expect). A reachable store whose exact value set shares
// nothing with the tested constants is then invisible to every reader.
func (l *linter) lintWriteValues() {
	type varInfo struct {
		tested  map[lang.Val]bool
		loaded  bool
		opaque  bool // some reader escapes the test-only discipline
		hasTest bool
	}
	infos := make([]varInfo, len(l.sys.Vars))
	for i := range infos {
		infos[i].tested = map[lang.Val]bool{}
	}

	threads := l.res.Programs
	for _, tf := range threads {
		loadVar := loadOnlyRegs(tf.CFG)
		// Registers loaded from x but not load-only make x opaque.
		for _, edges := range tf.CFG.Out {
			for _, e := range edges {
				if e.Op.Kind == lang.OpLoad {
					infos[e.Op.Var].loaded = true
					if _, ok := loadVar[e.Op.Reg]; !ok {
						infos[e.Op.Var].opaque = true
					}
				}
			}
		}
		// Classify every use of every load-only register.
		for _, edges := range tf.CFG.Out {
			for _, e := range edges {
				exprs := edgeExprs(e)
				for _, expr := range exprs {
					tests, onlyTests := constTests(expr, loadVar)
					for reg, vals := range tests {
						v := loadVar[reg]
						for _, c := range vals {
							infos[v].tested[c] = true
							infos[v].hasTest = true
						}
					}
					if !onlyTests {
						// Some tracked register is used outside a constant
						// test: its source variable's values escape.
						for reg := range regsIn(expr) {
							if v, ok := loadVar[reg]; ok {
								infos[v].opaque = true
							}
						}
					}
				}
				// A CAS expect is a test of the variable's value.
				if e.Op.Kind == lang.OpCASOp && tf.Reachable(e.From) {
					if vals, ok := tf.EvalAt(e.From, e.Op.E).Norm(l.sys.Dom).Exact(); ok {
						for _, c := range vals {
							infos[e.Op.Var].tested[c] = true
							infos[e.Op.Var].hasTest = true
						}
					} else {
						infos[e.Op.Var].opaque = true
					}
				}
			}
		}
	}

	// Second pass: flag reachable stores whose every possible value is
	// test-equivalent to the initial value. Readers only observe membership
	// in the tested-constant set, so a stored value v is indistinguishable
	// from the initial value exactly when neither is among the constants —
	// the store could be deleted without any reader noticing.
	for _, tf := range threads {
		for _, edges := range tf.CFG.Out {
			for _, e := range edges {
				if e.Op.Kind != lang.OpStore || !tf.Reachable(e.From) {
					continue
				}
				info := &infos[e.Op.Var]
				if !info.loaded || info.opaque || !info.hasTest || info.tested[l.sys.Init] {
					continue
				}
				vals, ok := tf.EvalAt(e.From, e.Op.E).Norm(l.sys.Dom).Exact()
				if !ok || len(vals) == 0 {
					continue
				}
				unused := true
				for _, v := range vals {
					if info.tested[v] {
						unused = false
					}
				}
				if unused {
					l.report(e.Op.Pos, RuleWriteValueUnused, tf.Prog.Name,
						"value %s stored to '%s' is indistinguishable from the initial value %d: readers only test %s",
						FromValues(vals), l.sys.VarName(e.Op.Var), int(l.sys.Init), testedString(info.tested))
				}
			}
		}
	}
}

// loadOnlyRegs maps each register whose every definition is a load of one
// fixed variable to that variable.
func loadOnlyRegs(g *lang.CFG) map[lang.RegID]lang.VarID {
	type src struct {
		v     lang.VarID
		mixed bool
	}
	defs := map[lang.RegID]*src{}
	for _, edges := range g.Out {
		for _, e := range edges {
			switch e.Op.Kind {
			case lang.OpLoad:
				if s, ok := defs[e.Op.Reg]; ok {
					if s.v != e.Op.Var {
						s.mixed = true
					}
				} else {
					defs[e.Op.Reg] = &src{v: e.Op.Var}
				}
			case lang.OpAssign:
				if s, ok := defs[e.Op.Reg]; ok {
					s.mixed = true
				} else {
					defs[e.Op.Reg] = &src{mixed: true}
				}
			}
		}
	}
	out := map[lang.RegID]lang.VarID{}
	for r, s := range defs {
		if !s.mixed {
			out[r] = s.v
		}
	}
	return out
}

// constTests collects, per tracked register, the constants it is ==/!=
// compared against in expr. onlyTests is false when a tracked register
// appears anywhere outside such a comparison.
func constTests(expr lang.Expr, tracked map[lang.RegID]lang.VarID) (map[lang.RegID][]lang.Val, bool) {
	tests := map[lang.RegID][]lang.Val{}
	onlyTests := true
	var walk func(e lang.Expr, inTest bool)
	walk = func(e lang.Expr, inTest bool) {
		switch e := e.(type) {
		case lang.RegExpr:
			if _, ok := tracked[e.Reg]; ok && !inTest {
				onlyTests = false
			}
		case lang.UnExpr:
			walk(e.E, false)
		case lang.BinExpr:
			if e.Op == lang.OpEq || e.Op == lang.OpNe {
				if reg, c, ok := regConstSides(e); ok {
					if _, isTracked := tracked[reg]; isTracked {
						tests[reg] = append(tests[reg], c)
						return
					}
				}
			}
			walk(e.L, false)
			walk(e.R, false)
		}
	}
	walk(expr, false)
	return tests, onlyTests
}

// regConstSides decomposes `r op c` / `c op r` into (r, c).
func regConstSides(b lang.BinExpr) (lang.RegID, lang.Val, bool) {
	if r, ok := b.L.(lang.RegExpr); ok {
		if c, ok := b.R.(lang.ConstExpr); ok {
			return r.Reg, c.V, true
		}
	}
	if r, ok := b.R.(lang.RegExpr); ok {
		if c, ok := b.L.(lang.ConstExpr); ok {
			return r.Reg, c.V, true
		}
	}
	return 0, 0, false
}

// walkExpr visits every node of the expression tree.
func walkExpr(e lang.Expr, f func(lang.Expr)) {
	f(e)
	switch e := e.(type) {
	case lang.UnExpr:
		walkExpr(e.E, f)
	case lang.BinExpr:
		walkExpr(e.L, f)
		walkExpr(e.R, f)
	}
}

// regsIn returns the set of registers appearing in e.
func regsIn(e lang.Expr) map[lang.RegID]bool {
	out := map[lang.RegID]bool{}
	walkExpr(e, func(x lang.Expr) {
		if r, ok := x.(lang.RegExpr); ok {
			out[r.Reg] = true
		}
	})
	return out
}

// edgeExprs lists the expressions evaluated by the edge's operation.
func edgeExprs(e lang.Edge) []lang.Expr {
	switch e.Op.Kind {
	case lang.OpAssume, lang.OpAssign, lang.OpStore:
		return []lang.Expr{e.Op.E}
	case lang.OpCASOp:
		return []lang.Expr{e.Op.E, e.Op.E2}
	default:
		return nil
	}
}

func testedString(tested map[lang.Val]bool) string {
	vals := make([]lang.Val, 0, len(tested))
	for v := range tested {
		vals = append(vals, v)
	}
	return FromValues(vals).String()
}
