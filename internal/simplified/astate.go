package simplified

import (
	"slices"

	"paramra/internal/engine"
	"paramra/internal/lang"
)

// ReadLog is a persistent (shared-tail) list recording the messages a thread
// has loaded, most recent first. It feeds the dependency-graph analysis
// (Definition 1: depend, rc) and is excluded from state identity. Entries
// name messages by reference, not by key, so renumbering timestamps leaves
// every log valid; Violation.Resolver turns them into keys.
type ReadLog struct {
	Ref  MsgRef
	Prev *ReadLog
}

// Refs returns the read message references in chronological order.
func (l *ReadLog) Refs() []MsgRef {
	n := 0
	for e := l; e != nil; e = e.Prev {
		n++
	}
	out := make([]MsgRef, n)
	for e := l; e != nil; e = e.Prev {
		n--
		out[n] = e.Ref
	}
	return out
}

// AThread is a thread-local configuration of the simplified semantics.
type AThread struct {
	PC   lang.PC
	Regs []lang.Val
	View AView
	Log  *ReadLog // reads so far; not part of Key
}

// Key returns the identity of the configuration (pc, registers, view) as a
// compact injective encoding (see engine.KeyEnc).
func (c AThread) Key() string {
	enc := engine.GetKeyEnc()
	c.encodeKey(enc)
	k := enc.String()
	engine.PutKeyEnc(enc)
	return k
}

// encodeKey appends the configuration's identity to enc. Register and view
// arities are length-prefixed so configurations of different programs can
// share one key stream.
func (c AThread) encodeKey(enc *engine.KeyEnc) {
	enc.Int(int(c.PC))
	enc.Len(len(c.Regs))
	for _, r := range c.Regs {
		enc.Int(int(r))
	}
	enc.Len(len(c.View))
	for _, t := range c.View {
		enc.Int(int(t))
	}
}

func (c AThread) cloneRegs() []lang.Val {
	out := make([]lang.Val, len(c.Regs))
	copy(out, c.Regs)
	return out
}

// MsgEntry is an env message together with the read log of the env
// derivation that first produced it (genthread's reads, Definition 1) and
// its first-derivation index in the env set, which read logs refer to it by
// (an EnvRef). Cloning and renumbering copy the index unchanged.
type MsgEntry struct {
	Msg AMsg
	Log *ReadLog
	Idx int32
}

// EnvSet is the monotone env part of a configuration: every env thread
// configuration ever reached and every env message ever generated. The
// Infinite Supply Lemma makes these sets grow-only.
//
// Both kinds of fact are kept in insertion order, and a fact keeps its
// position for good (cloning and renumbering included): saturation
// worklists hold positions, read logs name env messages by index, and
// iterating in this order makes first-derivation provenance (and with it
// witnesses and §4.3 bounds) reproducible across runs. Two position
// indexes (posIndex) serve the duplicate probe, comparing fields, not
// rendered keys.
//
// Clone is copy-on-write: a clone borrows the parent's slices and indexes
// and copies them only on its first insertion (thaw). Most successor
// states never learn a new env fact, so their clones cost one struct copy.
// The parent must be frozen once clones exist, which the explorers
// guarantee: a state's env is only mutated during its own saturation,
// before the state is admitted and shared.
type EnvSet struct {
	// Configs lists the configurations in insertion order.
	Configs []AThread
	// Msgs lists the env messages in insertion order: Msgs[i].Idx == i.
	Msgs []MsgEntry
	// MsgsByVar indexes the env messages by shared variable for loads, each
	// list in Idx order.
	MsgsByVar [][]MsgEntry
	// idx finds the positions in Configs and Msgs.
	idx *envIndex
	// shared marks a copy-on-write clone still borrowing its parent's
	// storage; the first mutation thaws it.
	shared bool
}

// NewEnvSet returns an empty env set over numVars shared variables.
func NewEnvSet(numVars int) *EnvSet {
	return &EnvSet{MsgsByVar: make([][]MsgEntry, numVars), idx: &envIndex{}}
}

// Clone copies the set (entries themselves are immutable). The copy shares
// the parent's storage until its first insertion.
func (e *EnvSet) Clone() *EnvSet {
	c := *e
	c.shared = true
	return &c
}

// thaw makes a shared clone privately mutable: the indexes are copied, and
// the borrowed slices are capacity-clamped so a later append reallocates
// instead of scribbling into a sibling's backing array.
func (e *EnvSet) thaw() {
	if !e.shared {
		return
	}
	e.idx = &envIndex{cfgs: e.idx.cfgs.clone(), msgs: e.idx.msgs.clone()}
	e.Configs = e.Configs[:len(e.Configs):len(e.Configs)]
	e.Msgs = e.Msgs[:len(e.Msgs):len(e.Msgs)]
	byVar := make([][]MsgEntry, len(e.MsgsByVar))
	for i, s := range e.MsgsByVar {
		byVar[i] = s[:len(s):len(s)]
	}
	e.MsgsByVar = byVar
	e.shared = false
}

// findConfig returns the position of the configuration (pc, regs, vw), or
// -1; h is its configHash.
func (e *EnvSet) findConfig(h uint32, pc lang.PC, regs []lang.Val, vw AView) int32 {
	return e.idx.cfgs.lookup(h, func(i int32) bool {
		c := &e.Configs[i]
		return c.PC == pc && slices.Equal(c.Regs, regs) && slices.Equal(c.View, vw)
	})
}

// findMsg returns the index of the env message (x, ts, val, vw), or -1; h
// is its msgHash.
func (e *EnvSet) findMsg(h uint32, x lang.VarID, ts ATime, val lang.Val, vw AView) int32 {
	return e.idx.msgs.lookup(h, func(i int32) bool {
		m := &e.Msgs[i].Msg
		return m.Var == x && m.TS == ts && m.Val == val && slices.Equal(m.View, vw)
	})
}

// insertConfig appends c, which findConfig does not find, under its hash
// h. It takes c's slices as they are.
func (e *EnvSet) insertConfig(h uint32, c AThread) {
	e.thaw()
	e.idx.cfgs.insert(h, int32(len(e.Configs)))
	if n := len(e.Configs); n == cap(e.Configs) {
		// Double the capacity, as append does only for a short slice: one
		// saturation can append thousands of configurations.
		e.Configs = append(make([]AThread, 0, max(2*n, 1)), e.Configs...)
	}
	e.Configs = append(e.Configs, c)
}

// insertMsg appends the env message m, which findMsg does not find, with
// the read log of its first derivation, under its hash h.
func (e *EnvSet) insertMsg(h uint32, m AMsg, log *ReadLog) {
	e.thaw()
	entry := MsgEntry{Msg: m, Log: log, Idx: int32(len(e.Msgs))}
	e.idx.msgs.insert(h, entry.Idx)
	e.Msgs = append(e.Msgs, entry)
	e.MsgsByVar[m.Var] = append(e.MsgsByVar[m.Var], entry)
}

// AddConfig inserts a configuration; returns true if it was new. A new
// configuration takes position len(Configs) before the call.
func (e *EnvSet) AddConfig(c AThread) bool {
	h := configHash(c.PC, c.Regs, c.View)
	if e.findConfig(h, c.PC, c.Regs, c.View) >= 0 {
		return false
	}
	e.insertConfig(h, c)
	return true
}

// AddMsg inserts an env message; returns true if it was new. The first
// derivation wins (genthread is the first thread adding the message).
func (e *EnvSet) AddMsg(m AMsg, log *ReadLog) bool {
	h := msgHash(m.Var, m.TS, m.Val, m.View)
	if e.findMsg(h, m.Var, m.TS, m.Val, m.View) >= 0 {
		return false
	}
	e.insertMsg(h, m, log)
	return true
}

// state is a macro-configuration of the verifier: the non-monotone dis part
// plus the monotone env part. The memory and env set are embedded by value:
// cloning a state is then one struct copy plus the dis slice, instead of four
// separate heap objects (state, dis, DisMem, EnvSet) per successor.
type state struct {
	dis []AThread
	mem DisMem
	env EnvSet
	// disInline backs dis for the common small thread counts, so clone is a
	// single allocation (the state itself). dis aliases disInline only within
	// the same state value; states are never copied wholesale (always cloned
	// via clone, which rebinds the slice).
	disInline [2]AThread
}

func (s *state) clone() *state {
	ns := &state{mem: s.mem, env: s.env}
	if len(s.dis) <= len(ns.disInline) {
		ns.dis = ns.disInline[:len(s.dis)]
	} else {
		ns.dis = make([]AThread, len(s.dis))
	}
	copy(ns.dis, s.dis)
	// The embedded copies borrow the parent's storage until first mutation
	// (see DisMem.thaw / EnvSet.thaw); the explorers freeze a state once its
	// successors exist, so the parent is never mutated afterwards.
	ns.mem.shared = true
	ns.env.shared = true
	return ns
}

// memChanged reports whether this clone's dis memory differs from its
// parent's (a Put thawed the copy-on-write borrow). Env saturation is a pure
// function of (mem, env): every derivation reads only the dis memory and the
// env set itself, never the dis threads' configurations. A successor whose
// memory is untouched therefore already sits at its parent's saturation
// fixpoint — re-saturating it derives nothing and detects no violation the
// parent's saturation would not have detected — so the explorers skip
// saturation wholesale for such successors (incremental saturation).
func (s *state) memChanged() bool { return !s.mem.shared }

// key identifies the macro-state for memoization: dis thread configurations
// and dis memory, in one compact injective encoding. The env set needs no
// place in it: it is the saturation of the dis memory (DESIGN, "The env set
// is a function of the dis memory").
func (s *state) key() string {
	enc := engine.GetKeyEnc()
	s.appendKey(enc)
	k := enc.String()
	engine.PutKeyEnc(enc)
	return k
}

// appendKey encodes the macro-state key into enc; hot paths probe the
// visited set with enc.Bytes() and intern only on first sight.
func (s *state) appendKey(enc *engine.KeyEnc) {
	s.appendKeyDis(enc)
	s.appendKeyMem(enc)
}

// appendKeyDis encodes the dis-thread section of the key, including the
// '#' separator that precedes the memory section.
func (s *state) appendKeyDis(enc *engine.KeyEnc) {
	enc.Len(len(s.dis))
	for _, d := range s.dis {
		d.encodeKey(enc)
	}
	enc.Mark('#')
}

// appendKeyMem encodes the memory suffix of the key. For a successor whose
// dis memory is untouched (memChanged false) this suffix is byte-identical
// to the parent's — the expansion loops encode it once per parent and
// splice it into each such successor's key with KeyEnc.Raw.
func (s *state) appendKeyMem(enc *engine.KeyEnc) {
	s.mem.encodeKey(enc)
}
