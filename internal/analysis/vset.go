package analysis

import (
	"fmt"
	"sort"
	"strings"

	"paramra/internal/lang"
)

// maxExact is the widening threshold: a value set holding more than this
// many elements collapses to its interval hull. Committed (normed) sets
// therefore form chains of height at most maxExact+2 per register, which
// bounds the fixpoint.
const maxExact = 32

// maxEnum bounds how many values an interval is re-enumerated into when a
// norm or filter would otherwise lose precision.
const maxEnum = maxExact

// vkind discriminates the VSet representation.
type vkind uint8

const (
	vEmpty vkind = iota // bottom: no value reaches here
	vExact              // small sorted set of values
	vRange              // interval hull [lo, hi]
)

// VSet is an abstract value: a finite set of integers, represented exactly
// while small and as an interval hull once widened. The empty set is the
// lattice bottom ("no execution reaches this point with any value").
type VSet struct {
	kind   vkind
	vals   []lang.Val // vExact: sorted, deduplicated
	lo, hi lang.Val   // vRange: inclusive bounds
}

// Bottom returns the empty value set.
func Bottom() VSet { return VSet{} }

// smallVals backs the singletons of small values, so the sets the analysis
// builds most (constants, register initial values, boolean outcomes) cost no
// allocation. No VSet operation writes into vals, so sharing is safe.
var smallVals = func() (a [256]lang.Val) {
	for i := range a {
		a[i] = lang.Val(i)
	}
	return a
}()

// boolVals is the shared backing of the set {0, 1}.
var boolVals = [2]lang.Val{0, 1}

// Singleton returns the set {v}.
func Singleton(v lang.Val) VSet {
	if v >= 0 && int(v) < len(smallVals) {
		return VSet{kind: vExact, vals: smallVals[v : v+1 : v+1]}
	}
	return VSet{kind: vExact, vals: []lang.Val{v}}
}

// FromValues builds a set from arbitrary (unsorted, possibly repeated)
// values, widening to the hull when there are more than maxExact distinct
// elements.
func FromValues(vs []lang.Val) VSet {
	if len(vs) == 0 {
		return VSet{}
	}
	sorted := append([]lang.Val(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	if len(out) > maxExact {
		return Range(out[0], out[len(out)-1])
	}
	return VSet{kind: vExact, vals: out}
}

// Range returns the interval [lo, hi] (empty when lo > hi).
func Range(lo, hi lang.Val) VSet {
	if lo > hi {
		return VSet{}
	}
	if lo == hi {
		return Singleton(lo)
	}
	return VSet{kind: vRange, lo: lo, hi: hi}
}

// IsEmpty reports whether the set is bottom.
func (s VSet) IsEmpty() bool { return s.kind == vEmpty }

// Exact returns the elements when the set is finite and explicitly
// represented; ok is false for interval hulls (and true, nil for bottom).
func (s VSet) Exact() (vals []lang.Val, ok bool) {
	switch s.kind {
	case vEmpty:
		return nil, true
	case vExact:
		return s.vals, true
	default:
		return nil, false
	}
}

// Widened reports whether the set lost exactness (interval representation).
func (s VSet) Widened() bool { return s.kind == vRange }

// Size returns the number of values in the set (hull width for intervals).
func (s VSet) Size() int {
	switch s.kind {
	case vEmpty:
		return 0
	case vExact:
		return len(s.vals)
	default:
		return int(s.hi-s.lo) + 1
	}
}

// Bounds returns the minimum and maximum element; ok is false for bottom.
func (s VSet) Bounds() (lo, hi lang.Val, ok bool) {
	switch s.kind {
	case vEmpty:
		return 0, 0, false
	case vExact:
		return s.vals[0], s.vals[len(s.vals)-1], true
	default:
		return s.lo, s.hi, true
	}
}

// Contains reports whether v may be in the set.
func (s VSet) Contains(v lang.Val) bool {
	switch s.kind {
	case vEmpty:
		return false
	case vExact:
		i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
		return i < len(s.vals) && s.vals[i] == v
	default:
		return s.lo <= v && v <= s.hi
	}
}

// canBeTrue reports whether the set holds a non-zero (truthy) value.
func (s VSet) canBeTrue() bool {
	switch s.kind {
	case vEmpty:
		return false
	case vExact:
		return len(s.vals) > 1 || s.vals[0] != 0
	default:
		return s.lo != 0 || s.hi != 0
	}
}

// canBeFalse reports whether the set holds zero.
func (s VSet) canBeFalse() bool { return s.Contains(0) }

// Join returns the least upper bound of a and b.
func Join(a, b VSet) VSet {
	switch {
	case a.kind == vEmpty:
		return b
	case b.kind == vEmpty:
		return a
	case a.kind == vExact && b.kind == vExact:
		// When one set contains the other the join is that set: return it
		// without building a merged copy.
		switch n := unionSize(a.vals, b.vals); n {
		case len(a.vals):
			return a
		case len(b.vals):
			return b
		}
		merged := make([]lang.Val, 0, len(a.vals)+len(b.vals))
		i, j := 0, 0
		for i < len(a.vals) || j < len(b.vals) {
			switch {
			case j == len(b.vals) || (i < len(a.vals) && a.vals[i] < b.vals[j]):
				merged = append(merged, a.vals[i])
				i++
			case i == len(a.vals) || b.vals[j] < a.vals[i]:
				merged = append(merged, b.vals[j])
				j++
			default:
				merged = append(merged, a.vals[i])
				i, j = i+1, j+1
			}
		}
		if len(merged) > maxExact {
			return Range(merged[0], merged[len(merged)-1])
		}
		return VSet{kind: vExact, vals: merged}
	default:
		alo, ahi, _ := a.Bounds()
		blo, bhi, _ := b.Bounds()
		return Range(min(alo, blo), max(ahi, bhi))
	}
}

// unionSize counts the distinct elements of two sorted, deduplicated slices.
func unionSize(a, b []lang.Val) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			i, j = i+1, j+1
		}
		n++
	}
	return n + len(a) - i + len(b) - j
}

// Intersect returns an over-approximation of a ∩ b (exact when both sets
// are exact; hull clamping otherwise).
func Intersect(a, b VSet) VSet {
	switch {
	case a.kind == vEmpty || b.kind == vEmpty:
		return VSet{}
	case a.kind == vExact && b.kind == vExact:
		var out []lang.Val
		for _, v := range a.vals {
			if b.Contains(v) {
				out = append(out, v)
			}
		}
		if out == nil {
			return VSet{}
		}
		return VSet{kind: vExact, vals: out}
	case a.kind == vExact:
		return filterExact(a, b.Contains)
	case b.kind == vExact:
		return filterExact(b, a.Contains)
	default:
		return Range(max(a.lo, b.lo), min(a.hi, b.hi))
	}
}

// filterExact keeps the elements of the exact set s satisfying keep.
func filterExact(s VSet, keep func(lang.Val) bool) VSet {
	var out []lang.Val
	for _, v := range s.vals {
		if keep(v) {
			out = append(out, v)
		}
	}
	if out == nil {
		return VSet{}
	}
	return VSet{kind: vExact, vals: out}
}

// Equal reports whether two sets have the same representation. Distinct
// representations of the same mathematical set (an exact enumeration of a
// full interval vs. the interval) compare unequal, which is fine for
// fixpoint detection: Join is representation-deterministic.
func Equal(a, b VSet) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case vEmpty:
		return true
	case vExact:
		if len(a.vals) != len(b.vals) {
			return false
		}
		for i := range a.vals {
			if a.vals[i] != b.vals[i] {
				return false
			}
		}
		return true
	default:
		return a.lo == b.lo && a.hi == b.hi
	}
}

// Norm reduces the set into the data domain [0, dom), mirroring the norm
// both execution engines apply when a value is committed to a register, a
// store, or a CAS operand. Sets wider than the domain collapse to the full
// domain.
func (s VSet) Norm(dom int) VSet {
	d := lang.Val(dom)
	if d <= 0 || s.kind == vEmpty {
		return s
	}
	full := Range(0, d-1)
	switch s.kind {
	case vExact:
		if lo, hi, _ := s.Bounds(); lo >= 0 && hi < d {
			return s // already inside the domain
		}
		mapped := make([]lang.Val, len(s.vals))
		for i, v := range s.vals {
			mapped[i] = v.Norm(dom)
		}
		return FromValues(mapped)
	default:
		if s.hi-s.lo+1 >= d {
			return full
		}
		if int(s.hi-s.lo)+1 <= maxEnum {
			mapped := make([]lang.Val, 0, int(s.hi-s.lo)+1)
			for v := s.lo; v <= s.hi; v++ {
				mapped = append(mapped, v.Norm(dom))
			}
			return FromValues(mapped)
		}
		return full
	}
}

// String renders the set for diagnostics: {}, {1,3}, or [0..7].
func (s VSet) String() string {
	switch s.kind {
	case vEmpty:
		return "{}"
	case vExact:
		var b strings.Builder
		b.WriteByte('{')
		for i, v := range s.vals {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", int(v))
		}
		b.WriteByte('}')
		return b.String()
	default:
		return fmt.Sprintf("[%d..%d]", int(s.lo), int(s.hi))
	}
}
