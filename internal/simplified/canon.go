package simplified

import (
	"paramra/internal/lang"
)

// Canonical timestamps (DESIGN, "Canonical timestamps"). Every guard of the
// simplified semantics compares dis timestamps by position, never by value;
// the only fact about them that is not about order is whether a gap still
// has room for a store. The fixpoint therefore keeps each variable's dis
// messages on canonical slots: the init message at 0, a sealed message (a
// CAS right above the dis message it read) one above its predecessor, and
// every other message two above its predecessor. Every unsealed gap then
// holds exactly one free slot, and so does the slot above the last message:
// a store chooses a gap, not an integer, and a macro-state is an order
// class of integer states.

// renumbering maps one variable's old dis slots to their canonical ones.
type renumbering struct {
	x lang.VarID
	// lo is the least old slot that moves; timestamps below it keep their
	// value.
	lo int
	// slots maps each occupied old slot to its canonical slot.
	slots []int
}

// time renumbers a timestamp on x. Every timestamp on x is Int(t) or
// Plus(t) for the slot t of a dis message on x, and the renumbering keeps
// the two forms apart, so order between any two of them is preserved.
func (r *renumbering) time(t ATime) ATime {
	if t.Floor() < r.lo {
		return t
	}
	return Int(r.slots[t.Floor()]) + t&1
}

// moves reports whether r changes vw.
func (r *renumbering) moves(vw AView) bool { return vw[r.x].Floor() >= r.lo }

// view returns vw with its x component renumbered: vw itself when that
// component does not move (views are immutable), else a fresh copy.
func (r *renumbering) view(vw AView) AView {
	if !r.moves(vw) {
		return vw
	}
	out := vw.Clone()
	out[r.x] = r.time(vw[r.x])
	return out
}

// canonicalize moves x's dis messages in st to their canonical slots and
// renumbers every timestamp on x that refers to them: in the views of dis
// threads, dis messages and env configurations, and in env ⁺-timestamps.
// Read logs name messages by reference and need no change. st must own its
// dis memory (a Put thawed it).
func (ex *exec) canonicalize(st *state, x lang.VarID) {
	r := &ex.renum
	r.x, r.lo, r.slots = x, -1, r.slots[:0]
	slot := 0
	for i, m := range st.mem.VarMsgs(x) {
		if i > 0 {
			slot += 2
			if m.Sealed {
				slot--
			}
		}
		old := m.TS.Floor()
		for len(r.slots) <= old {
			r.slots = append(r.slots, 0)
		}
		r.slots[old] = slot
		if r.lo < 0 && slot != old {
			r.lo = old
		}
	}
	if r.lo < 0 {
		return
	}
	st.mem.renumber(r)
	for i := range st.dis {
		st.dis[i].View = r.view(st.dis[i].View)
	}
	st.env.renumber(r)
}

// slotCap is the highest integer slot a store or CAS on x may take in st:
// the variable's budget, and in a canonical search the slot above x's last
// dis message, since every higher slot canonicalizes to the same state.
func (ex *exec) slotCap(st *state, x lang.VarID) int {
	if !ex.canon {
		return ex.v.budget[x]
	}
	msgs := st.mem.VarMsgs(x)
	return min(ex.v.budget[x], msgs[len(msgs)-1].TS.Floor()+1)
}

// renumber applies r to every message's view and moves x's messages to
// their new slots. Their order is kept, so the message array stays sorted.
func (m *DisMem) renumber(r *renumbering) {
	m.thaw()
	x := int(r.x)
	lo, n := m.idxOf(x, 0), m.countVar(x)
	if top := r.slots[m.msgs[lo+n-1].TS.Floor()]; top >= m.width {
		m.grow(top + 1)
	}
	for i := range m.msgs {
		msg := &m.msgs[i]
		msg.View = r.view(msg.View)
		if msg.Var == r.x {
			msg.TS = r.time(msg.TS)
		}
	}
	wpv := wordsFor(m.width)
	occ := m.occ[x*wpv : (x+1)*wpv]
	clear(occ)
	for _, msg := range m.msgs[lo : lo+n] {
		ts := msg.TS.Floor()
		occ[ts/64] |= 1 << (uint(ts) % 64)
	}
}

// renumber applies r to every configuration's view and every message's
// view and ⁺-timestamp, by position, and rebuilds both indexes from the
// renumbered facts. Configuration positions, message orders and message
// indices are kept. A set none of whose entries move is left as it is,
// still borrowing its parent's storage.
func (e *EnvSet) renumber(r *renumbering) {
	if !e.movedBy(r) {
		return
	}
	cfgs := make([]AThread, len(e.Configs))
	idx := &envIndex{cfgs: newPosIndex(len(cfgs)), msgs: newPosIndex(len(e.Msgs))}
	for i, c := range e.Configs {
		c.View = r.view(c.View)
		cfgs[i] = c
		idx.cfgs.insert(configHash(c.PC, c.Regs, c.View), int32(i))
	}
	msgs := make([]MsgEntry, len(e.Msgs))
	byVar := make([][]MsgEntry, len(e.MsgsByVar))
	for v, list := range e.MsgsByVar {
		byVar[v] = make([]MsgEntry, 0, len(list))
	}
	for i, me := range e.Msgs {
		m := &me.Msg
		if r.moves(m.View) {
			m.View = r.view(m.View)
			if m.Var == r.x {
				m.TS = r.time(m.TS)
			}
		}
		msgs[i] = me
		idx.msgs.insert(msgHash(m.Var, m.TS, m.Val, m.View), int32(i))
		byVar[m.Var] = append(byVar[m.Var], me)
	}
	e.Configs, e.Msgs, e.MsgsByVar, e.idx = cfgs, msgs, byVar, idx
	e.shared = false
}

// movedBy reports whether r changes any entry of the set.
func (e *EnvSet) movedBy(r *renumbering) bool {
	for _, c := range e.Configs {
		if r.moves(c.View) {
			return true
		}
	}
	for _, me := range e.Msgs {
		if r.moves(me.Msg.View) {
			return true
		}
	}
	return false
}
