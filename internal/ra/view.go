// Package ra implements the standard operational release-acquire semantics
// of Figure 2 of the paper for *fixed instances* (a concrete, finite number
// of threads).
//
// The textbook semantics draws timestamps from ℕ, which makes even a single
// configuration infinite-state. We use the standard finite representation:
// each shared variable's modification order is an ordered list of messages,
// and a timestamp is the message's *position* in that list. A store inserts
// a fresh message at any position strictly after the storing thread's view
// of the variable; a CAS inserts immediately after the message it read and
// *seals* that gap, so no later store can intervene — this captures the
// paper's requirement that CAS load/store timestamps are adjacent (ts'=ts+1)
// for the entire future of the run. Views reference positions; insertion
// shifts later positions, which the implementation patches everywhere.
//
// This representation is reachability-preserving (it is the rank compression
// of timestamps used, e.g., in the source-to-source semantics of Kang et
// al.'s promising semantics restricted to RA) and makes loop-free instances
// finite-state.
package ra

// View maps each shared variable (by index) to the position, in that
// variable's modification order, of the most recent message the thread has
// observed. Position 0 is the initial message.
type View []int

// NewView returns the zero view over numVars variables.
func NewView(numVars int) View { return make(View, numVars) }

// Clone returns a copy of v.
func (v View) Clone() View {
	out := make(View, len(v))
	copy(out, v)
	return out
}

// Join computes the pointwise maximum of v and w in place on a fresh copy
// (the ⊔ of the paper: λx. max(v(x), w(x))).
func (v View) Join(w View) View {
	out := v.Clone()
	out.join(w)
	return out
}

// join is Join in place: v becomes v ⊔ w.
func (v View) join(w View) {
	for i, t := range w {
		if t > v[i] {
			v[i] = t
		}
	}
}

// Leq reports whether v ≤ w pointwise.
func (v View) Leq(w View) bool {
	for i, t := range v {
		if t > w[i] {
			return false
		}
	}
	return true
}

// Eq reports pointwise equality.
func (v View) Eq(w View) bool {
	if len(v) != len(w) {
		return false
	}
	for i, t := range v {
		if t != w[i] {
			return false
		}
	}
	return true
}
