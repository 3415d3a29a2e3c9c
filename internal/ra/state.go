package ra

import (
	"bytes"
	"fmt"
	"strings"

	"paramra/internal/engine"
	"paramra/internal/lang"
)

// Msg is a message in a variable's modification order: the stored value, the
// view it carries, and whether the gap immediately after it is sealed by a
// CAS (no store may ever be inserted between this message and its successor).
type Msg struct {
	Val    lang.Val
	View   View
	Sealed bool
}

// Thread is a thread-local configuration: program counter in the thread's
// CFG, register valuation, and view.
type Thread struct {
	PC   lang.PC
	Regs []lang.Val
	View View
}

// State is a configuration of a fixed instance: per-variable modification
// orders plus all thread-local configurations.
type State struct {
	// Mem[v] is the modification order of variable v; Mem[v][0] is the
	// initial message.
	Mem [][]Msg
	// Threads holds the thread-local configurations, indexed consistently
	// with Instance.Threads.
	Threads []Thread
}

// Clone deep-copies the state in one block per element type: a single []Msg
// backs every modification order, a single []int arena every message and
// thread view, and a single []lang.Val every register file. Each
// per-variable, per-view and per-thread slice is capped at its length, so an
// append to one (insert) reallocates it instead of overwriting a neighbour.
func (s *State) Clone() *State {
	nMsg, nView, nReg := 0, 0, 0
	for _, list := range s.Mem {
		nMsg += len(list)
		for i := range list {
			nView += len(list[i].View)
		}
	}
	for i := range s.Threads {
		nView += len(s.Threads[i].View)
		nReg += len(s.Threads[i].Regs)
	}
	out := &State{
		Mem:     make([][]Msg, len(s.Mem)),
		Threads: make([]Thread, len(s.Threads)),
	}
	a := arena{
		msgs:  make([]Msg, nMsg),
		views: make([]int, nView),
		regs:  make([]lang.Val, nReg),
	}
	a.fill(out, s, 0)
	return out
}

// arena is the backing store of a state copy; fill carves it up.
type arena struct {
	msgs  []Msg
	views []int
	regs  []lang.Val
}

// fill makes dst a copy of src whose slices are carved from a, leaving
// spareMsgs unused message slots after each modification order (as append
// capacity) and returning the first unused view offset. dst.Mem and
// dst.Threads must already have src's lengths, and a must be large enough.
func (a *arena) fill(dst, src *State, spareMsgs int) (viewOff int) {
	mi, vi, ri := 0, 0, 0
	view := func(w View) View {
		out := View(a.views[vi : vi+len(w) : vi+len(w)])
		copy(out, w)
		vi += len(w)
		return out
	}
	for v, list := range src.Mem {
		nl := a.msgs[mi : mi+len(list) : mi+len(list)+spareMsgs]
		for i := range list {
			nl[i] = Msg{Val: list[i].Val, View: view(list[i].View), Sealed: list[i].Sealed}
		}
		dst.Mem[v] = nl
		mi += len(list) + spareMsgs
	}
	for i := range src.Threads {
		th := &src.Threads[i]
		regs := a.regs[ri : ri+len(th.Regs) : ri+len(th.Regs)]
		copy(regs, th.Regs)
		ri += len(th.Regs)
		dst.Threads[i] = Thread{PC: th.PC, Regs: regs, View: view(th.View)}
	}
	return vi
}

// Key returns a canonical encoding of the state, used for visited-set
// hashing during exploration. Positions are already canonical ranks, so two
// states are semantically identical iff their keys are equal. The encoding
// is the compact injective varint scheme of engine.KeyEnc.
func (s *State) Key() string {
	enc := engine.GetKeyEnc()
	s.appendKey(enc)
	k := enc.String()
	engine.PutKeyEnc(enc)
	return k
}

// appendKey encodes the canonical state key into enc without materializing a
// string; the hot exploration paths probe the visited set with enc.Bytes()
// and intern only on first sight.
func (s *State) appendKey(enc *engine.KeyEnc) {
	s.encodeMemKey(enc)
	for i := range s.Threads {
		encodeThread(enc, &s.Threads[i])
	}
}

// SymKey returns the state key with the first nEnv thread sections (the
// identical env replicas) in sorted order: states equal up to a permutation
// of env replicas share a SymKey. Sound because replicas run the same
// program and messages carry no thread identity.
func (s *State) SymKey(nEnv int) string {
	enc := engine.GetKeyEnc()
	var es envSort
	s.appendSymKey(enc, nEnv, &es)
	k := enc.String()
	engine.PutKeyEnc(enc)
	return k
}

// appendSymKey is appendKey under env-replica symmetry canonicalization.
func (s *State) appendSymKey(enc *engine.KeyEnc, nEnv int, es *envSort) {
	nEnv = min(nEnv, len(s.Threads))
	if nEnv <= 1 {
		s.appendKey(enc)
		return
	}
	s.encodeMemKey(enc)
	es.reset()
	for i := 0; i < nEnv; i++ {
		encodeThread(&es.buf, &s.Threads[i])
		es.mark()
	}
	es.appendSorted(enc)
	for i := nEnv; i < len(s.Threads); i++ {
		encodeThread(enc, &s.Threads[i])
	}
}

// sections is a run of key sections encoded back to back.
type sections struct {
	buf  engine.KeyEnc
	ends []int
}

func (ss *sections) reset() {
	ss.buf.Reset()
	ss.ends = ss.ends[:0]
}

// mark ends the section being encoded into buf.
func (ss *sections) mark() { ss.ends = append(ss.ends, len(ss.buf.Bytes())) }

// section returns the encoding of section i.
func (ss *sections) section(i int) []byte {
	start := 0
	if i > 0 {
		start = ss.ends[i-1]
	}
	return ss.buf.Bytes()[start:ss.ends[i]]
}

// envSort holds the env-replica sections of a symmetry key while they are
// put in order.
type envSort struct {
	sections
	order []int
}

// appendSorted appends the sections to enc in bytes.Compare order, the
// order sort.Strings gives their string forms, so a symmetry key does not
// depend on how it was built.
func (es *envSort) appendSorted(enc *engine.KeyEnc) {
	n := len(es.ends)
	es.order = es.order[:0]
	for i := 0; i < n; i++ {
		es.order = append(es.order, i)
	}
	// Insertion sort: there are only a handful of replicas.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && bytes.Compare(es.section(es.order[j]), es.section(es.order[j-1])) < 0; j-- {
			es.order[j], es.order[j-1] = es.order[j-1], es.order[j]
		}
	}
	for _, i := range es.order {
		enc.Raw(es.section(i))
	}
}

func (s *State) encodeMemKey(enc *engine.KeyEnc) {
	for _, list := range s.Mem {
		enc.Len(len(list))
		for _, m := range list {
			enc.Int(int(m.Val))
			sealed := 0
			if m.Sealed {
				sealed = 1
			}
			enc.Int(sealed)
			enc.Len(len(m.View))
			for _, t := range m.View {
				enc.Int(t)
			}
		}
	}
}

// encodeThread encodes one thread's section of a state key.
func encodeThread(enc *engine.KeyEnc, th *Thread) {
	enc.Int(int(th.PC))
	enc.Len(len(th.Regs))
	for _, r := range th.Regs {
		enc.Int(int(r))
	}
	enc.Len(len(th.View))
	for _, t := range th.View {
		enc.Int(t)
	}
}

// insert places msg at position pos in variable v's modification order and
// patches every view in the state (thread views and message views) so that
// positions ≥ pos shift up by one. The caller is responsible for having
// checked gap-seal constraints.
func (s *State) insert(v lang.VarID, pos int, msg Msg) {
	list := s.Mem[v]
	list = append(list, Msg{})
	copy(list[pos+1:], list[pos:])
	list[pos] = msg
	s.Mem[v] = list
	bump := func(vw View) {
		if vw[v] >= pos {
			// The inserted message's own view points at itself and must not
			// be bumped; callers set msg.View[v] = pos after this returns if
			// needed. We bump all *pre-existing* views.
			vw[v]++
		}
	}
	for vi := range s.Mem {
		for mi := range s.Mem[vi] {
			if vi == int(v) && mi == pos {
				continue // the new message itself
			}
			bump(s.Mem[vi][mi].View)
		}
	}
	for ti := range s.Threads {
		bump(s.Threads[ti].View)
	}
}

// String renders the state for diagnostics, with names from the instance.
func (s *State) String() string {
	var b strings.Builder
	for v, list := range s.Mem {
		fmt.Fprintf(&b, "var#%d:", v)
		for i, m := range list {
			fmt.Fprintf(&b, " [%d]=%d", i, int(m.Val))
			if m.Sealed {
				b.WriteByte('!')
			}
		}
		b.WriteByte('\n')
	}
	for i, th := range s.Threads {
		fmt.Fprintf(&b, "thread %d: pc=%d regs=%v view=%v\n", i, int(th.PC), th.Regs, th.View)
	}
	return b.String()
}
