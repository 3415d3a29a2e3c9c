package ra

import (
	"fmt"

	"paramra/internal/lang"
)

// Event records one transition of a computation for witness reporting.
type Event struct {
	Thread int    // index into Instance.Threads
	Name   string // thread name
	Op     string // rendered operation
	// Assert is true when the transition fires an `assert false`.
	Assert bool
}

// Succ is a successor state together with the event that produced it.
type Succ struct {
	State *State
	Event Event
}

// step is a transition in compact form: the thread, the CFG edge it takes,
// and for memory operations the position read (load, CAS) or written
// (store) and the value loaded. The explorers keep steps, not Events, and
// render only the ones on a witness.
type step struct {
	thread int
	edge   *lang.Edge
	pos    int
	val    lang.Val
}

// assert reports whether the step fires an `assert false`.
func (st step) assert() bool { return st.edge.Op.Kind == lang.OpAssertFail }

// event renders st as the Event the public API reports.
func (inst *Instance) event(st step) Event {
	info := &inst.Threads[st.thread]
	op := &st.edge.Op
	ev := Event{
		Thread: st.thread,
		Name:   info.Name,
		Op:     op.String(info.CFG.Prog.Regs, inst.Sys.Vars),
		Assert: st.assert(),
	}
	switch op.Kind {
	case lang.OpLoad:
		ev.Op = fmt.Sprintf("%s  (ts %d, val %d)", ev.Op, st.pos, int(st.val))
	case lang.OpStore:
		ev.Op = fmt.Sprintf("%s  (ts %d)", ev.Op, st.pos)
	case lang.OpCASOp:
		ev.Op = fmt.Sprintf("%s  (ts %d->%d)", ev.Op, st.pos, st.pos+1)
	}
	return ev
}

// Successors enumerates all RA transitions enabled in s, implementing the
// global transition relation of Figure 2 (LD-GLOBAL, ST-GLOBAL, CAS-GLOBAL,
// UNLABELLED) over the positional-timestamp representation. The successors
// share storage with s and with each other, so they are read-only, like s
// (see State).
func (inst *Instance) Successors(s *State) []Succ {
	var out []Succ
	var sc scratch
	inst.eachSucc(s, &sc, func(st step) bool {
		out = append(out, Succ{State: sc.materialize(), Event: inst.event(st)})
		return true
	})
	return out
}

// eachSucc builds every successor of s, in Successors order, in the scratch
// sc and calls yield with its step; yield reads the successor through
// inst.keyInto and sc.materialize, and only during the call. eachSucc stops
// when yield returns false, and reports whether it ran to the end.
func (inst *Instance) eachSucc(s *State, sc *scratch, yield func(step) bool) bool {
	sc.begin(s)
	for ti := range s.Threads {
		info := &inst.Threads[ti]
		th := &s.Threads[ti]
		edges := info.CFG.Out[th.PC]
		for ei := range edges {
			e := &edges[ei]
			st := step{thread: ti, edge: e}
			switch e.Op.Kind {
			case lang.OpNop, lang.OpAssertFail:
				sc.setLocal(ti, e.To)
				if !yield(st) {
					return false
				}

			case lang.OpAssume:
				if e.Op.E.Eval(th.Regs) == 0 {
					continue
				}
				sc.setLocal(ti, e.To)
				if !yield(st) {
					return false
				}

			case lang.OpAssign:
				sc.setLocal(ti, e.To)
				sc.th.Regs[e.Op.Reg] = e.Op.E.Eval(th.Regs).Norm(inst.Sys.Dom)
				if !yield(st) {
					return false
				}

			case lang.OpLoad:
				// LD: any message on Var at position ≥ the thread's view.
				v := e.Op.Var
				for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
					msg := &s.Mem[v][pos]
					sc.setLocal(ti, e.To)
					sc.th.Regs[e.Op.Reg] = msg.Val
					sc.th.View.join(msg.View)
					st.pos, st.val = pos, msg.Val
					if !yield(st) {
						return false
					}
				}

			case lang.OpStore:
				// ST: insert at any unsealed gap strictly after the view.
				v := e.Op.Var
				d := e.Op.E.Eval(th.Regs).Norm(inst.Sys.Dom)
				for pos := th.View[v] + 1; pos <= len(s.Mem[v]); pos++ {
					if s.Mem[v][pos-1].Sealed {
						continue
					}
					sc.setFull()
					nt := &sc.Threads[ti]
					nt.PC = e.To
					mv := sc.spare
					copy(mv, nt.View)
					mv[v] = pos
					sc.insert(v, pos, Msg{Val: d, View: mv})
					// The thread adopts the message view (vw <_x vw').
					copy(nt.View, mv)
					st.pos = pos
					if !yield(st) {
						return false
					}
				}

			case lang.OpCASOp:
				// CAS: read a matching message, write immediately after it, and
				// seal the gap so the pair stays adjacent forever.
				v := e.Op.Var
				expect := e.Op.E.Eval(th.Regs).Norm(inst.Sys.Dom)
				newVal := e.Op.E2.Eval(th.Regs).Norm(inst.Sys.Dom)
				for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
					msg := &s.Mem[v][pos]
					if msg.Val != expect || msg.Sealed {
						continue
					}
					sc.setFull()
					nt := &sc.Threads[ti]
					nt.PC = e.To
					mv := sc.spare
					copy(mv, nt.View)
					mv.join(msg.View)
					mv[v] = pos + 1
					sc.insert(v, pos+1, Msg{Val: newVal, View: mv})
					sc.Mem[v][pos].Sealed = true
					copy(nt.View, mv)
					st.pos = pos
					if !yield(st) {
						return false
					}
				}
			}
		}
	}
	return true
}
