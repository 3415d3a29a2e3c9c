package simplified

import (
	"paramra/internal/lang"
)

// disMove is one enabled dis transition of a macro-state, as eachDisMove
// yields it. It describes the move without applying it: consumers clone
// the state and install next (and put) themselves.
type disMove struct {
	// dis is the stepping dis thread, kind the operation kind.
	dis  int
	kind lang.OpKind
	// next is the thread's configuration after the move. An `assert false`
	// edge has no successor; its next is not meant to be installed.
	next AThread
	// read is the message a load or CAS reads (hasRead marks it).
	read    AMsg
	hasRead bool
	// put is the message a store or CAS adds to dis memory (hasPut marks
	// it). It carries its provenance (AMsg.Ref, AMsg.GenLog): the stepping
	// thread and edge, and next.Log, its reads up to the store (a store
	// keeps the thread's log, a CAS extends it by the message read).
	put    AMsg
	hasPut bool
}

// loadTarget is a readable message together with the view the reader adopts
// and the message's reference, which the callers thread into read logs.
type loadTarget struct {
	msg  AMsg
	view AView
	ref  MsgRef
}

// loadTargets enumerates the messages a thread with view vw can load from
// variable x, and the resulting views:
//
//   - dis messages are timestamp-checked (vw(x) ≤ ts) and joined as in the
//     concrete semantics;
//   - env messages carry no check (Infinite Supply: some clone is high
//     enough), and the resulting view of x is bumped into the ⁺-region of
//     the join's floor — the clone actually read lies strictly above the
//     reader's previous view of x, so the reader can no longer access the
//     integer timestamp at that floor.
//
// Results are appended to buf (pass buf[:0] to reuse an exec's scratch
// across calls; the returned slice is only valid until the next reuse).
func (v *Verifier) loadTargets(st *state, vw AView, x lang.VarID, buf []loadTarget) []loadTarget {
	out := buf
	for _, m := range st.mem.VarMsgs(x) {
		if m.TS >= vw[x] {
			out = append(out, loadTarget{msg: m, view: vw.Join(m.View), ref: m.Ref})
		}
	}
	for _, me := range st.env.MsgsByVar[x] {
		j := vw.Join(me.Msg.View)
		j[x] = Plus(j[x].Floor())
		out = append(out, loadTarget{msg: me.Msg, view: j, ref: EnvRef(me.Idx)})
	}
	return out
}

// eachDisMove yields every enabled dis transition of st, in a fixed order:
// dis threads by index, each thread's CFG edges in order, and within an
// edge the readable messages and free timestamp slots in increasing order,
// up to slotCap.
// It decides nothing — `assert false` edges are yielded like any other
// move, and the consumer chooses whether one ends its search. yield
// returns false to stop the enumeration.
//
// The move is exec scratch (ex.mv), overwritten by the next one: consumers
// copy what they keep. A move built in a local would escape to the heap
// through yield, costing an allocation per transition.
func (ex *exec) eachDisMove(st *state, yield func(*disMove) bool) {
	v := ex.v
	mv := &ex.mv
	for i := range st.dis {
		cfg := st.dis[i]
		for _, e := range v.disCFG[i].Out[cfg.PC] {
			*mv = disMove{dis: i, kind: e.Op.Kind,
				next: AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log}}
			switch e.Op.Kind {
			case lang.OpNop, lang.OpAssertFail:
				if !yield(mv) {
					return
				}

			case lang.OpAssume:
				if e.Op.E.Eval(cfg.Regs) != 0 && !yield(mv) {
					return
				}

			case lang.OpAssign:
				mv.next.Regs = cfg.cloneRegs()
				mv.next.Regs[e.Op.Reg] = e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				if !yield(mv) {
					return
				}

			case lang.OpLoad:
				lts := v.loadTargets(st, cfg.View, e.Op.Var, ex.ltBuf[:0])
				// Keep the grown buffer; no consumer loads while a move is
				// yielded.
				ex.ltBuf = lts[:0]
				for _, lt := range lts {
					regs := cfg.cloneRegs()
					regs[e.Op.Reg] = lt.msg.Val
					mv.next = AThread{PC: e.To, Regs: regs, View: lt.view,
						Log: &ReadLog{Ref: lt.ref, Prev: cfg.Log}}
					mv.read, mv.hasRead = lt.msg, true
					if !yield(mv) {
						return
					}
				}

			case lang.OpStore:
				x := e.Op.Var
				d := e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
				for t, hi := 1, ex.slotCap(st, x); t <= hi; t++ {
					if Int(t) <= cfg.View[x] || !st.mem.Free(x, t) {
						continue
					}
					view := cfg.View.Clone()
					view[x] = Int(t)
					mv.next.View = view
					mv.put = AMsg{Var: x, TS: Int(t), Val: d, View: view,
						Ref: DisRef(i, e.From), GenLog: mv.next.Log}
					mv.hasPut = true
					if !yield(mv) {
						return
					}
				}

			case lang.OpCASOp:
				if !ex.eachDisCAS(st, cfg, e, yield) {
					return
				}
			}
		}
	}
}

// eachDisCAS yields the compare-and-swap transitions of one CAS edge; it
// returns false when yield stopped the enumeration. A CAS atomically loads
// a message with the expected value and stores the new value at the
// adjacent integer timestamp:
//
//   - reading a dis message at ts requires ts ≥ vw(x) and slot ts+1 free
//     (the paper's ts' = ts + 1 adjacency, which also blocks a second CAS
//     on the same message); the stored message is sealed to the one read;
//   - reading an env message at u⁺ can use any free integer slot t with
//     t-1 ≥ max(u, ⌊vw(x)⌋): by Infinite Supply a clone of the message can
//     be lifted into region t-1 just below the slot, and the remaining env
//     messages relocate out of the gap (timestamp lifting, §3.1), so env
//     messages never block adjacency.
func (ex *exec) eachDisCAS(st *state, cfg AThread, e lang.Edge, yield func(*disMove) bool) bool {
	v := ex.v
	mv := &ex.mv
	x := e.Op.Var
	expect := e.Op.E.Eval(cfg.Regs).Norm(v.sys.Dom)
	newVal := e.Op.E2.Eval(cfg.Regs).Norm(v.sys.Dom)

	// move yields the CAS that reads m (which ref names) and stores at t.
	move := func(m AMsg, ref MsgRef, t int) bool {
		view := cfg.View.Join(m.View)
		view[x] = Int(t)
		mv.next = AThread{PC: e.To, Regs: cfg.Regs, View: view,
			Log: &ReadLog{Ref: ref, Prev: cfg.Log}}
		mv.read, mv.hasRead = m, true
		mv.put = AMsg{Var: x, TS: Int(t), Val: newVal, View: view,
			Sealed: !m.Env, Ref: DisRef(mv.dis, e.From), GenLog: mv.next.Log}
		mv.hasPut = true
		return yield(mv)
	}

	// Case 1: CAS on a dis message.
	for _, m := range st.mem.VarMsgs(x) {
		u := m.TS.Floor()
		if m.TS < cfg.View[x] || m.Val != expect {
			continue
		}
		if u+1 > v.budget[x] || !st.mem.Free(x, u+1) {
			continue
		}
		if !move(m, m.Ref, u+1) {
			return false
		}
	}

	// Case 2: CAS on an env message.
	for _, me := range st.env.MsgsByVar[x] {
		if me.Msg.Val != expect {
			continue
		}
		lo := max(me.Msg.TS.Floor(), cfg.View[x].Floor())
		for t, hi := lo+1, ex.slotCap(st, x); t <= hi; t++ {
			if st.mem.Free(x, t) && !move(me.Msg, EnvRef(me.Idx), t) {
				return false
			}
		}
	}
	return true
}

// disSuccessors enumerates the macro-states reachable by one transition of a
// dis thread. An enabled `assert false` ends the enumeration with a
// violation, except in Message Generation mode, where asserts are inert
// (§4.1). A canonical exec renumbers each store's variable to canonical
// timestamps. Env saturation of the successors is the caller's job.
func (ex *exec) disSuccessors(st *state) ([]*state, *Violation) {
	// The result slice is exec scratch: callers consume it before the next
	// expansion on this exec. The successor states themselves escape; only
	// the slice header is recycled.
	out := ex.outBuf[:0]
	var viol *Violation
	mg := ex.v.opts.Goal != nil
	ex.eachDisMove(st, func(mv *disMove) bool {
		if mv.kind == lang.OpAssertFail {
			if mg {
				return true
			}
			viol = &Violation{ByEnv: false, DisIndex: mv.dis, Log: st.dis[mv.dis].Log}
			return false
		}
		ns := ex.cloneState(st)
		ns.dis[mv.dis] = mv.next
		if mv.hasPut {
			ns.mem.Put(mv.put)
			if ex.canon {
				ex.canonicalize(ns, mv.put.Var)
			}
		}
		ex.stats.DisTransitions++
		out = append(out, ns)
		return true
	})
	ex.outBuf = out
	return out, viol
}
