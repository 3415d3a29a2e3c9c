package analysis

import (
	"fmt"
	"reflect"

	"paramra/internal/lang"
)

// SliceOptions configures the verdict-preserving slicer.
type SliceOptions struct {
	// KeepVars names shared variables that must survive slicing even when
	// the analysis finds them removable (e.g. the goal variable of a
	// value-reachability query, which the caller inspects after the run).
	KeepVars []string
}

// SliceStats summarizes the size reduction achieved by Slice, measured in
// CFG nodes (PCs), registers, and shared variables, summed over the distinct
// programs of the system.
type SliceStats struct {
	Rounds                int
	PCsBefore, PCsAfter   int
	RegsBefore, RegsAfter int
	VarsBefore, VarsAfter int
}

// Changed reports whether slicing shrank the system at all.
func (s SliceStats) Changed() bool {
	return s.PCsAfter != s.PCsBefore || s.RegsAfter != s.RegsBefore || s.VarsAfter != s.VarsBefore
}

// String renders e.g. "pcs 34→28, regs 5→4, vars 4→3".
func (s SliceStats) String() string {
	return fmt.Sprintf("pcs %d→%d, regs %d→%d, vars %d→%d",
		s.PCsBefore, s.PCsAfter, s.RegsBefore, s.RegsAfter, s.VarsBefore, s.VarsAfter)
}

// maxSliceRounds caps the rewrite fixpoint; each round either shrinks the
// system or stops, so the cap is a pure safety net.
const maxSliceRounds = 100

// Slice returns a smaller system with the same parameterized safety verdict
// (and the same reachable value set for every surviving shared variable).
// The input is never mutated. The rewrites, each argued sound under RA:
//
//   - assignments to dead registers are dropped (thread-local and pure);
//   - statements at unreachable PCs are dropped (the value analysis proves
//     no execution, for any replica count, reaches them — note a reachable
//     never-true assume is KEPT: it blocks the path, and removing it would
//     add behaviors);
//   - reachable assumes that can never be false are dropped (they never
//     block, and an assume has no memory effect);
//   - stores to write-only shared variables are dropped (their messages are
//     never observed by any load or CAS, and a store never blocks);
//   - `while cond {}` becomes `assume !cond` (the empty body cannot change
//     the registers the exit guard reads);
//   - empty star-loops, all-skip choices and unused registers/variables are
//     elided.
//
// Dead *loads* are deliberately kept: under RA a load has acquire semantics
// (it updates the thread's view), so removing one would add behaviors even
// when the loaded value is never read. `ravet` flags them instead.
func Slice(sys *lang.System, opts SliceOptions) (*lang.System, SliceStats) {
	keep := map[string]bool{}
	for _, v := range opts.KeepVars {
		keep[v] = true
	}
	out := cloneSystem(sys)
	stats := SliceStats{
		PCsBefore:  countPCs(sys),
		RegsBefore: countRegs(sys),
		VarsBefore: len(sys.Vars),
	}
	for stats.Rounds < maxSliceRounds {
		stats.Rounds++
		changed := false
		fp := Footprint(out)
		deadVar := make([]bool, len(out.Vars))
		for v := range out.Vars {
			deadVar[v] = fp.WriteOnly(lang.VarID(v)) && !keep[out.Vars[v]]
		}
		progs := uniquePrograms(out)
		res := Analyze(renumberSystem(out, progs))
		for i, p := range progs {
			newBody := sliceBody(p, res.Programs[i], deadVar)
			if !reflect.DeepEqual(p.Body, newBody) {
				p.Body = newBody
				changed = true
			}
		}
		for _, p := range progs {
			if dropUnusedRegs(p) {
				changed = true
			}
		}
		if dropUnusedVars(out, keep) {
			changed = true
		}
		if !changed {
			break
		}
	}
	stats.PCsAfter = countPCs(out)
	stats.RegsAfter = countRegs(out)
	stats.VarsAfter = len(out.Vars)
	return out, stats
}

// cloneSystem copies the system's mutable spine (System, Programs, and their
// name tables), preserving program sharing between clauses. Statement values
// are shared: every rewrite below builds fresh values instead of mutating.
func cloneSystem(sys *lang.System) *lang.System {
	out := &lang.System{
		Name: sys.Name,
		Vars: append([]string(nil), sys.Vars...),
		Dom:  sys.Dom,
		Init: sys.Init,
	}
	cloned := map[*lang.Program]*lang.Program{}
	cp := func(p *lang.Program) *lang.Program {
		if p == nil {
			return nil
		}
		if c, ok := cloned[p]; ok {
			return c
		}
		c := &lang.Program{Name: p.Name, Regs: append([]string(nil), p.Regs...), Body: p.Body}
		cloned[p] = c
		return c
	}
	out.Env = cp(sys.Env)
	for _, d := range sys.Dis {
		out.Dis = append(out.Dis, cp(d))
	}
	return out
}

func uniquePrograms(sys *lang.System) []*lang.Program {
	var out []*lang.Program
	seen := map[*lang.Program]bool{}
	for _, p := range sys.Threads() {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func countPCs(sys *lang.System) int {
	n := 0
	for _, p := range uniquePrograms(sys) {
		n += lang.Compile(p).NumNodes
	}
	return n
}

func countRegs(sys *lang.System) int {
	n := 0
	for _, p := range uniquePrograms(sys) {
		n += len(p.Regs)
	}
	return n
}

// stmtInfo aggregates the per-statement facts the rewriter consults, keyed
// by the synthetic positions assigned by renumber.
type stmtInfo struct {
	hasEdges       bool
	allUnreachable bool // every edge of the statement starts at an unreachable PC
	deadDef        bool // assignment whose destination register is dead
	neverTrue      bool // reachable assume whose condition can never hold
	alwaysTrue     bool // reachable assume whose condition always holds
}

// renumberSystem returns a copy of sys whose programs (in progs order,
// sharing preserved) carry renumbered bodies, so the value analysis's
// per-PC facts can be mapped back onto the original statements: source
// positions may legitimately repeat (both guards of a desugared `if` share
// the if's), synthetic ones never do.
func renumberSystem(sys *lang.System, progs []*lang.Program) *lang.System {
	syn := &lang.System{Name: sys.Name, Vars: sys.Vars, Dom: sys.Dom, Init: sys.Init}
	m := make(map[*lang.Program]*lang.Program, len(progs))
	for _, p := range progs {
		ctr := 0
		m[p] = &lang.Program{Name: p.Name, Regs: p.Regs, Body: renumber(p.Body, &ctr)}
	}
	if sys.Env != nil {
		syn.Env = m[sys.Env]
	}
	for _, d := range sys.Dis {
		syn.Dis = append(syn.Dis, m[d])
	}
	return syn
}

// sliceBody computes one rewrite round for p's body from the facts of its
// renumbered copy.
func sliceBody(p *lang.Program, tf *ThreadFacts, deadVar []bool) lang.Stmt {
	g := tf.CFG
	live := LiveRegs(g)
	info := map[lang.Pos]*stmtInfo{}
	for _, edges := range g.Out {
		for _, e := range edges {
			si := info[e.Op.Pos]
			if si == nil {
				si = &stmtInfo{allUnreachable: true}
				info[e.Op.Pos] = si
			}
			si.hasEdges = true
			reach := tf.Reachable(e.From)
			if reach {
				si.allUnreachable = false
			}
			if e.Op.Kind == lang.OpAssign && live.DeadDef(e) {
				si.deadDef = true
			}
			if e.Op.Kind == lang.OpAssume && reach {
				cond := tf.EvalAt(e.From, e.Op.E)
				si.neverTrue = !cond.canBeTrue()
				si.alwaysTrue = cond.canBeTrue() && !cond.canBeFalse()
			}
		}
	}
	s := &slicer{info: info, deadVar: deadVar}
	return s.rewrite(p.Body, tf.Prog.Body)
}

// renumber returns a structural copy of st in which every statement carries
// a unique position, mirrored exactly by slicer.rewrite's parallel walk.
func renumber(st lang.Stmt, ctr *int) lang.Stmt {
	*ctr++
	pos := lang.Pos{Line: *ctr, Col: 1}
	switch st := st.(type) {
	case lang.Seq:
		stmts := make([]lang.Stmt, len(st.Stmts))
		for i, s := range st.Stmts {
			stmts[i] = renumber(s, ctr)
		}
		return lang.Seq{Stmts: stmts, Pos: pos}
	case lang.Choice:
		branches := make([]lang.Stmt, len(st.Branches))
		for i, s := range st.Branches {
			branches[i] = renumber(s, ctr)
		}
		return lang.Choice{Branches: branches, Pos: pos}
	case lang.Star:
		return lang.Star{Body: renumber(st.Body, ctr), Pos: pos}
	case lang.While:
		return lang.While{Cond: st.Cond, Body: renumber(st.Body, ctr), Pos: pos}
	default:
		return lang.WithPos(st, pos)
	}
}

type slicer struct {
	info    map[lang.Pos]*stmtInfo
	deadVar []bool
}

func (s *slicer) infoFor(syn lang.Stmt) stmtInfo {
	if si := s.info[syn.Position()]; si != nil {
		return *si
	}
	return stmtInfo{}
}

// removable reports whether the leaf statement mirrored by syn sits entirely
// at unreachable PCs.
func (s *slicer) removable(syn lang.Stmt) bool {
	si := s.infoFor(syn)
	return si.hasEdges && si.allUnreachable
}

// entryBlocked reports whether executing the statement mirrored by syn is
// guaranteed to block before performing any memory action: its first
// non-structural step is an assume whose condition can never hold (control
// edges of Seq/Choice are nops, so nothing visible happens first).
func (s *slicer) entryBlocked(syn lang.Stmt) bool {
	switch st := syn.(type) {
	case lang.Assume:
		return s.infoFor(st).neverTrue
	case lang.Seq:
		return len(st.Stmts) > 0 && s.entryBlocked(st.Stmts[0])
	case lang.Choice:
		for _, b := range st.Branches {
			if !s.entryBlocked(b) {
				return false
			}
		}
		return len(st.Branches) > 0
	default:
		return false
	}
}

// rewrite walks the original statement and its renumbered mirror in
// lockstep, returning the sliced statement (with original positions kept).
func (s *slicer) rewrite(orig, syn lang.Stmt) lang.Stmt {
	switch o := orig.(type) {
	case lang.Seq:
		sy := syn.(lang.Seq)
		outs := make([]lang.Stmt, len(o.Stmts))
		for i := range o.Stmts {
			outs[i] = s.rewrite(o.Stmts[i], sy.Stmts[i])
		}
		ns := lang.SeqOf(outs...)
		if seq, ok := ns.(lang.Seq); ok {
			seq.Pos = o.Pos
			return seq
		}
		return ns
	case lang.Choice:
		sy := syn.(lang.Choice)
		outs := make([]lang.Stmt, 0, len(o.Branches))
		var fallback lang.Stmt
		sawSkip := false
		for i := range o.Branches {
			b := s.rewrite(o.Branches[i], sy.Branches[i])
			if fallback == nil {
				fallback = b
			}
			if s.entryBlocked(sy.Branches[i]) {
				// The branch blocks before performing any memory action, so
				// taking it is indistinguishable (to the other threads) from
				// the thread never being scheduled again: drop it.
				continue
			}
			if _, ok := b.(lang.Skip); ok {
				if sawSkip {
					continue // identical branches are redundant
				}
				sawSkip = true
			}
			outs = append(outs, b)
		}
		if len(outs) == 0 {
			// Every branch blocks; keep one so the choice still blocks.
			outs = append(outs, fallback)
		}
		if len(outs) == 1 && sawSkip {
			return lang.Skip{Pos: o.Pos}
		}
		nc := lang.ChoiceOf(outs...)
		if ch, ok := nc.(lang.Choice); ok {
			ch.Pos = o.Pos
			return ch
		}
		return nc
	case lang.Star:
		sy := syn.(lang.Star)
		body := s.rewrite(o.Body, sy.Body)
		if emptyBody(body) {
			return lang.Skip{Pos: o.Pos} // iterating skip is skip
		}
		return lang.Star{Body: body, Pos: o.Pos}
	case lang.While:
		sy := syn.(lang.While)
		body := s.rewrite(o.Body, sy.Body)
		if emptyBody(body) {
			// The empty body cannot change the registers Cond reads, so the
			// loop is exactly a wait for ¬Cond.
			return lang.Assume{Cond: lang.Not(o.Cond), Pos: o.Pos}
		}
		return lang.While{Cond: o.Cond, Body: body, Pos: o.Pos}
	case lang.Assign:
		si := s.infoFor(syn)
		if (si.hasEdges && si.allUnreachable) || si.deadDef {
			return lang.Skip{Pos: o.Pos}
		}
		return o
	case lang.Store:
		if s.removable(syn) || s.deadVar[o.Var] {
			return lang.Skip{Pos: o.Pos}
		}
		return o
	case lang.Assume:
		if s.removable(syn) {
			return lang.Skip{Pos: o.Pos}
		}
		if s.infoFor(syn).alwaysTrue {
			return lang.Skip{Pos: o.Pos} // an assume that always holds never blocks
		}
		// A reachable assume that may block (including a never-true one)
		// must stay: removing it would add behaviors.
		return o
	case lang.Load, lang.AssertFail, lang.CAS:
		// A reachable load (acquire), assert, or CAS (blocking
		// read-modify-write) must stay; unreachable ones go.
		if s.removable(syn) {
			return lang.Skip{Pos: orig.Position()}
		}
		return orig
	default:
		return orig
	}
}

// dropUnusedRegs removes registers with no remaining occurrence in p's body
// and renumbers the rest. Returns whether anything changed.
func dropUnusedRegs(p *lang.Program) bool {
	used := make([]bool, len(p.Regs))
	lang.MarkRegs(p.Body, used)
	remap := make([]lang.RegID, len(p.Regs))
	var regs []string
	changed := false
	for i, u := range used {
		if u {
			remap[i] = lang.RegID(len(regs))
			regs = append(regs, p.Regs[i])
		} else {
			remap[i] = -1
			changed = true
		}
	}
	if !changed {
		return false
	}
	p.Regs = regs
	p.Body = lang.RemapStmt(p.Body, remap, nil)
	return true
}

// dropUnusedVars removes shared variables no surviving statement accesses
// (keeping the protected ones, and at least one variable so the system stays
// valid), renumbering VarIDs across every program.
func dropUnusedVars(sys *lang.System, keep map[string]bool) bool {
	used := make([]bool, len(sys.Vars))
	for _, p := range uniquePrograms(sys) {
		lang.MarkVars(p.Body, used)
	}
	for v, name := range sys.Vars {
		if keep[name] {
			used[v] = true
		}
	}
	anyUsed := false
	for _, u := range used {
		anyUsed = anyUsed || u
	}
	if !anyUsed && len(used) > 0 {
		used[0] = true // Validate requires a non-empty variable table
	}
	remap := make([]lang.VarID, len(sys.Vars))
	var vars []string
	changed := false
	for i, u := range used {
		if u {
			remap[i] = lang.VarID(len(vars))
			vars = append(vars, sys.Vars[i])
		} else {
			remap[i] = -1
			changed = true
		}
	}
	if !changed {
		return false
	}
	sys.Vars = vars
	for _, p := range uniquePrograms(sys) {
		p.Body = lang.RemapStmt(p.Body, nil, remap)
	}
	return true
}
