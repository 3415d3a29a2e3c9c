package simplified

import (
	"fmt"
	"math/bits"
	"strconv"

	"paramra/internal/engine"
	"paramra/internal/lang"
)

// AMsg is a message of the simplified semantics.
type AMsg struct {
	Var  lang.VarID
	TS   ATime // Int(ts) for dis/init messages, Plus(ts) for env messages
	Val  lang.Val
	View AView // View[Var] == TS by construction
	// Env marks messages generated by env threads (TS is a ⁺-timestamp).
	Env bool
	// Sealed marks a dis message a CAS stored right above the dis message
	// it read: no store can ever come between the two, so canonical
	// timestamps keep them adjacent (canon.go).
	Sealed bool
	// Ref and GenLog are a dis message's provenance (genthread,
	// Definition 1): its reference, which names the dis thread and edge
	// that stored it, and that thread's read log at the store. Like an env
	// message's MsgEntry.Log, they belong to the computation that reached
	// the message's configuration, and they are not part of the message's
	// identity (Key) nor of a macro-state's. An init message's Ref names its
	// variable; env messages leave both zero.
	Ref    MsgRef
	GenLog *ReadLog
}

// Key returns the canonical identity of the message. Two env messages with
// equal keys are indistinguishable in the simplified semantics (multiple
// stores may share a ⁺-timestamp).
func (m AMsg) Key() string {
	var buf [48]byte
	return string(m.appendKey(buf[:0]))
}

// appendKey appends the canonical identity to b. The rendering is the
// historical "var@ts=val<t0,t1,...,>" format (AMsg keys appear in witness
// read logs and golden traces, so the format is pinned), built with
// strconv instead of fmt so hot key constructions stay reflection-free.
func (m AMsg) appendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(m.Var), 10)
	b = append(b, '@')
	b = strconv.AppendInt(b, int64(m.TS), 10)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(m.Val), 10)
	b = append(b, '<')
	for _, t := range m.View {
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ',')
	}
	b = append(b, '>')
	return b
}

// String renders the message in the paper's (x, d, vw) notation.
func (m AMsg) String() string {
	kind := "dis"
	if m.Env {
		kind = "env"
	}
	return fmt.Sprintf("(%s x%d=%d @%s %s)", kind, int(m.Var), int(m.Val), m.TS, m.View)
}

// DisMem holds the dis messages (including the initial messages at integer
// timestamp 0) of a configuration.
//
// Storage is a popcount-indexed sparse array: per variable a fixed-width
// occupancy bitset over integer timestamps (occ), and one compact array of
// all messages sorted by (variable, timestamp) with no gaps (msgs, sliced
// per variable by the start offsets). The message at (v, ts) sits at
// start[v] + rank(v, ts), where rank counts the occupied timestamps below
// ts — a masked popcount. A configuration holds only a handful of dis
// messages, so Clone — the single largest allocation site of the fixpoint —
// copies exactly the live messages plus a few words of bitset, instead of
// rebuilding one Go map per variable.
// Clone is copy-on-write: it hands out a struct copy borrowing the parent's
// arrays, and the first Put on the copy thaws it (private arrays, with a
// little spare message capacity since a thaw is almost always followed by
// exactly one insertion). The explorers freeze a state once its successors
// exist, so a parent is never mutated while clones borrow its storage —
// the same discipline EnvSet relies on.
type DisMem struct {
	numVars int
	width   int      // timestamp capacity per variable; grows on demand
	occ     []uint64 // numVars * wordsFor(width) occupancy bits
	msgs    []AMsg   // all messages, (var, ts)-sorted, gap-free
	// shared marks a copy-on-write clone still borrowing its parent's
	// arrays; the first mutation thaws it.
	shared bool
}

// disMemWidth is the initial per-variable timestamp capacity: one bitset
// word. Integer timestamps are bounded by the §4.3 budget, which is far
// below 64 in practice; Put widens the bitset when a larger one appears.
const disMemWidth = 64

func wordsFor(width int) int { return (width + 63) / 64 }

// NewDisMem builds the initial memory: one message per variable at
// timestamp 0 carrying the zero view and the initial value.
func NewDisMem(numVars int, init lang.Val) *DisMem {
	m := &DisMem{
		numVars: numVars,
		width:   disMemWidth,
		occ:     make([]uint64, numVars*wordsFor(disMemWidth)),
		msgs:    make([]AMsg, 0, 2*numVars),
	}
	for v := 0; v < numVars; v++ {
		m.Put(AMsg{Var: lang.VarID(v), TS: Int(0), Val: init, View: NewAView(numVars),
			Ref: InitRef(lang.VarID(v))})
	}
	return m
}

// NumVars returns the number of shared variables the memory covers.
func (m *DisMem) NumVars() int { return m.numVars }

// Clone copies the memory (views are immutable by convention: every
// producer stores fresh slices, so sharing them is safe). The copy borrows
// the parent's arrays until its first Put.
func (m *DisMem) Clone() *DisMem {
	c := *m
	c.shared = true
	return &c
}

// thaw makes a copy-on-write clone privately mutable.
func (m *DisMem) thaw() {
	if !m.shared {
		return
	}
	occ := make([]uint64, len(m.occ))
	copy(occ, m.occ)
	m.occ = occ
	msgs := make([]AMsg, len(m.msgs), len(m.msgs)+2)
	copy(msgs, m.msgs)
	m.msgs = msgs
	m.shared = false
}

// grow widens every variable's bitset run to cover timestamps < minWidth.
// The message array is layout-independent and untouched.
func (m *DisMem) grow(minWidth int) {
	nw := m.width * 2
	for nw < minWidth {
		nw *= 2
	}
	oWords, nWords := wordsFor(m.width), wordsFor(nw)
	if nWords != oWords {
		occ := make([]uint64, m.numVars*nWords)
		for v := 0; v < m.numVars; v++ {
			copy(occ[v*nWords:v*nWords+oWords], m.occ[v*oWords:(v+1)*oWords])
		}
		m.occ = occ
	}
	m.width = nw
}

// idxOf returns the index in msgs where the message at (v, ts) sits (or
// would sit): the occupied slots of earlier variables plus those of v
// strictly below ts — a masked popcount walk over the occupancy words.
// There is no materialized offset table: with a handful of variables the
// popcounts are cheaper than cloning prefix offsets on every successor.
func (m *DisMem) idxOf(v, ts int) int {
	base := v * wordsFor(m.width)
	r := 0
	for _, w := range m.occ[:base+ts/64] {
		r += bits.OnesCount64(w)
	}
	r += bits.OnesCount64(m.occ[base+ts/64] & (1<<(uint(ts)%64) - 1))
	return r
}

// Get returns the dis message at (v, ts) if present.
func (m *DisMem) Get(v lang.VarID, ts int) (AMsg, bool) {
	if ts < 0 || ts >= m.width {
		return AMsg{}, false
	}
	if m.occ[int(v)*wordsFor(m.width)+ts/64]&(1<<(uint(ts)%64)) == 0 {
		return AMsg{}, false
	}
	return m.msgs[m.idxOf(int(v), ts)], true
}

// Free reports whether integer timestamp ts on variable v is unoccupied.
func (m *DisMem) Free(v lang.VarID, ts int) bool {
	_, ok := m.Get(v, ts)
	return !ok
}

// Put inserts a dis message (overwriting any message already at its
// timestamp, matching the historical map semantics).
func (m *DisMem) Put(msg AMsg) {
	v, ts := int(msg.Var), msg.TS.Floor()
	if ts >= m.width {
		m.thaw() // rare: grow reallocates occ anyway, keep this path simple
		m.grow(ts + 1)
	}
	w, bit := v*wordsFor(m.width)+ts/64, uint64(1)<<(uint(ts)%64)
	idx := m.idxOf(v, ts)
	if m.occ[w]&bit != 0 {
		m.thaw()
		m.msgs[idx] = msg
		return
	}
	if m.shared {
		// Fused thaw+insert — the hot path: a successor's first (and
		// almost always only) Put. One exact-size splice pass replaces a
		// full copy (thaw) followed by a shift (insert).
		occ := make([]uint64, len(m.occ))
		copy(occ, m.occ)
		occ[w] |= bit
		msgs := make([]AMsg, len(m.msgs)+1)
		copy(msgs, m.msgs[:idx])
		msgs[idx] = msg
		copy(msgs[idx+1:], m.msgs[idx:])
		m.occ, m.msgs = occ, msgs
		m.shared = false
		return
	}
	m.occ[w] |= bit
	m.msgs = append(m.msgs, AMsg{})
	copy(m.msgs[idx+1:], m.msgs[idx:])
	m.msgs[idx] = msg
}

// VarMsgs returns the dis messages on v in increasing timestamp order (the
// compact array is (var, ts)-sorted, so this is a plain sub-slice — the old
// map representation had to collect and sort keys). The slice aliases the
// memory's storage and must not be mutated or retained across a Put.
func (m *DisMem) VarMsgs(v lang.VarID) []AMsg {
	lo := m.idxOf(int(v), 0)
	return m.msgs[lo : lo+m.countVar(int(v))]
}

// Each calls f for every dis message on v in increasing timestamp order.
// Hot paths range over VarMsgs directly (a closure-free slice walk).
func (m *DisMem) Each(v lang.VarID, f func(AMsg)) {
	for _, msg := range m.VarMsgs(v) {
		f(msg)
	}
}

// countVar returns the number of dis messages on v.
func (m *DisMem) countVar(v int) int {
	base, wpv := v*wordsFor(m.width), wordsFor(m.width)
	n := 0
	for _, w := range m.occ[base : base+wpv] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Key returns a canonical encoding of the memory.
func (m *DisMem) Key() string {
	enc := engine.GetKeyEnc()
	m.encodeKey(enc)
	k := enc.String()
	engine.PutKeyEnc(enc)
	return k
}

// encodeKey appends the memory's identity to enc: per variable (fixed
// arity), a count-prefixed run of (ts, val, view) triples in timestamp
// order. The variable itself is implied by the bucket position, mirroring
// the fields of AMsg.Key. The byte layout is identical to the historical
// map-backed encoding (count = popcount, iteration in timestamp order), so
// macro-state keys — and with them memo caches and golden stats — carry
// over unchanged.
func (m *DisMem) encodeKey(enc *engine.KeyEnc) {
	lo := 0
	for v := 0; v < m.numVars; v++ {
		n := m.countVar(v)
		enc.Len(n)
		for _, msg := range m.msgs[lo : lo+n] {
			enc.Int(int(msg.TS))
			enc.Int(int(msg.Val))
			enc.Len(len(msg.View))
			for _, t := range msg.View {
				enc.Int(int(t))
			}
		}
		lo += n
	}
}

// Count returns the total number of dis messages (including init messages).
func (m *DisMem) Count() int { return len(m.msgs) }
