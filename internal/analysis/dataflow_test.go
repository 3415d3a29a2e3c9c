package analysis

import (
	"strings"
	"testing"

	"paramra/internal/lang"
)

func mustProgram(t *testing.T, src string, vars []string) *lang.Program {
	t.Helper()
	p, err := lang.ParseProgram(src, vars)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustSystem(t *testing.T, src string) *lang.System {
	t.Helper()
	sys, err := lang.ParseSystem(src)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestLivenessStraightLine: in a = 1; b = a; store x b, register a dies after
// b = a, and b dies after the store.
func TestLivenessStraightLine(t *testing.T) {
	p := mustProgram(t, "thread t { regs a b; a = 1; b = a; store x b }", []string{"x"})
	g := lang.Compile(p)
	live := LiveRegs(g)
	var asgA, asgB, st lang.Edge
	for _, edges := range g.Out {
		for _, e := range edges {
			switch {
			case e.Op.Kind == lang.OpAssign && e.Op.Reg == 0:
				asgA = e
			case e.Op.Kind == lang.OpAssign && e.Op.Reg == 1:
				asgB = e
			case e.Op.Kind == lang.OpStore:
				st = e
			}
		}
	}
	if !live.Live(asgA.To, 0) {
		t.Error("a should be live right after a = 1 (read by b = a)")
	}
	if live.Live(asgB.To, 0) {
		t.Error("a should be dead after b = a")
	}
	if !live.Live(asgB.To, 1) {
		t.Error("b should be live after b = a (read by the store)")
	}
	if live.Live(st.To, 1) {
		t.Error("b should be dead after the store")
	}
	if live.DeadDef(asgA) || live.DeadDef(asgB) {
		t.Error("no definition in the chain is dead")
	}
}

// TestLivenessLoop: a register read inside a loop stays live around the back
// edge.
func TestLivenessLoop(t *testing.T) {
	p := mustProgram(t, "thread t { regs n; n = 1; loop { store x n } }", []string{"x"})
	g := lang.Compile(p)
	live := LiveRegs(g)
	for _, edges := range g.Out {
		for _, e := range edges {
			if e.Op.Kind == lang.OpAssign {
				if !live.Live(e.To, 0) {
					t.Error("n must stay live through the loop")
				}
				if live.DeadDef(e) {
					t.Error("n = 1 is not a dead definition")
				}
			}
		}
	}
}

func terminalPC(g *lang.CFG) lang.PC {
	for n := 0; n < g.NumNodes; n++ {
		if len(g.Out[n]) == 0 {
			return lang.PC(n)
		}
	}
	return g.Entry
}

// TestUnassignedRegs: a register is maybe-unassigned until every path has
// defined it.
func TestUnassignedRegs(t *testing.T) {
	p := mustProgram(t, "thread t { regs a; choice { a = 1 } or { skip }; store x a }", []string{"x"})
	g := lang.Compile(p)
	ua := UnassignedRegs(g)
	if !ua.Unassigned(g.Entry, 0) {
		t.Error("a is unassigned at entry")
	}
	for _, edges := range g.Out {
		for _, e := range edges {
			if e.Op.Kind == lang.OpStore && !ua.Unassigned(e.From, 0) {
				t.Error("a may still be unassigned at the store (skip branch)")
			}
		}
	}
}

// TestFootprint covers the per-variable refinement of acyc/nocas.
func TestFootprint(t *testing.T) {
	sys := mustSystem(t, `system s { vars lock data out; domain 2; env w; dis r }
thread w { regs v; cas lock 0 1; v = load data; store data 1 }
thread r { store out 1 }`)
	fp := Footprint(sys)
	lock, _ := sys.VarByName("lock")
	data, _ := sys.VarByName("data")
	out, _ := sys.VarByName("out")
	w := fp.Threads[0]
	if w.NoCASOn(lock) {
		t.Error("thread w CASes lock")
	}
	if !w.NoCASOn(data) {
		t.Error("thread w is CAS-free on data")
	}
	if !fp.WriteOnly(out) {
		t.Error("out is write-only")
	}
	if fp.WriteOnly(data) {
		t.Error("data is loaded, not write-only")
	}
	if fp.NeverWritten(lock) {
		t.Error("lock is CASed, so it is written")
	}
	if fp.Unused(lock) || fp.Unused(out) {
		t.Error("lock and out are both accessed")
	}
	s := fp.String()
	if !strings.Contains(s, "lock{cas:1}") || !strings.Contains(s, "out{st:1}") {
		t.Errorf("footprint rendering missing entries:\n%s", s)
	}
}

// TestSolveBackwardBoundary: every terminal node gets the boundary fact even
// when several exist.
func TestSolveBackwardBoundary(t *testing.T) {
	p := mustProgram(t, "thread t { regs a; choice { a = 1; store x a } or { assume 1 == 1 } }", []string{"x"})
	g := lang.Compile(p)
	live := LiveRegs(g)
	// At the entry a is not yet live on the assume branch, but it is live on
	// the assignment branch only *after* the assignment; so entry-liveness of
	// a must be false (it is defined before its only use).
	if live.Live(g.Entry, 0) {
		t.Error("a is defined before use on every path; not live at entry")
	}
}
