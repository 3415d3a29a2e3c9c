package simplified

import (
	"math/bits"
	"slices"

	"paramra/internal/lang"
)

// posIndex finds a fact's position in a slice of facts its owner keeps
// (EnvSet.Configs, EnvSet.Msgs): an open-addressing hash table with linear
// probing, whose slots hold a fact's hash and position. It keeps no key:
// a probe compares the fields of the candidate with those of the stored fact
// at a position whose hash matches. The table orders nothing; the owner
// iterates its facts by position.
//
// Positions are inserted in increasing order from 0, so a table that takes
// position pos holds pos entries.
type posIndex struct {
	// slots has a power-of-two length, or is empty.
	slots []posSlot
}

// posSlot is one slot of a posIndex: a fact's hash and its position plus
// one, so that the zero slot is empty.
type posSlot struct {
	hash uint32
	pos1 int32
}

// minIndexSlots is the size of a table's first slot array.
const minIndexSlots = 8

// lookup returns the position of the fact with hash h that same accepts,
// or -1. same is called only on the positions stored under h.
func (x *posIndex) lookup(h uint32, same func(pos int32) bool) int32 {
	if len(x.slots) == 0 {
		return -1
	}
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.pos1 == 0 {
			return -1
		}
		if s.hash == h && same(s.pos1-1) {
			return s.pos1 - 1
		}
	}
}

// insert records position pos, the next one, under hash h. The fact at pos
// must be one lookup does not find.
func (x *posIndex) insert(h uint32, pos int32) {
	if 2*(int(pos)+1) > len(x.slots) {
		x.resize(max(2*len(x.slots), minIndexSlots))
	}
	x.put(posSlot{hash: h, pos1: pos + 1})
}

// put stores s in the first free slot of its probe chain.
func (x *posIndex) put(s posSlot) {
	mask := uint32(len(x.slots) - 1)
	i := s.hash & mask
	for x.slots[i].pos1 != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// resize moves the entries into a fresh slot array of n slots.
func (x *posIndex) resize(n int) {
	old := x.slots
	x.slots = make([]posSlot, n)
	for _, s := range old {
		if s.pos1 != 0 {
			x.put(s)
		}
	}
}

// clone returns a copy that shares no storage with x.
func (x posIndex) clone() posIndex {
	return posIndex{slots: slices.Clone(x.slots)}
}

// envIndex holds an EnvSet's two position indexes, behind one pointer so
// that a macro-state stays small: clones share it until they thaw.
type envIndex struct {
	cfgs, msgs posIndex
}

// newPosIndex returns an empty table that holds n entries without growing.
func newPosIndex(n int) posIndex {
	size := minIndexSlots
	for 2*n > size {
		size *= 2
	}
	return posIndex{slots: make([]posSlot, size)}
}

// Hashing. The hash of a fact mixes exactly the fields its identity is made
// of, those AThread.encodeKey and AMsg.appendKey render; a lengths'
// mismatch fails the field comparison. It is seedless, so a run is
// reproducible down to its probe sequences, which decide nothing anyway.

const hashMul = 0x9e3779b97f4a7c15

// hashWord mixes the word w into h.
func hashWord(h uint64, w int) uint64 {
	return (bits.RotateLeft64(h, 23) ^ uint64(w)) * hashMul
}

// hashView mixes the timestamps of vw into h.
func hashView(h uint64, vw AView) uint64 {
	for _, t := range vw {
		h = hashWord(h, int(t))
	}
	return h
}

// hashFinish folds h to the 32 bits a posSlot keeps, with every input bit
// reaching the low bits a probe starts from.
func hashFinish(h uint64) uint32 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

// configHash hashes a configuration's identity: (pc, registers, view).
func configHash(pc lang.PC, regs []lang.Val, vw AView) uint32 {
	h := hashWord(0, int(pc))
	for _, r := range regs {
		h = hashWord(h, int(r))
	}
	return hashFinish(hashView(h, vw))
}

// msgHash hashes an env message's identity: (variable, timestamp, value,
// view).
func msgHash(x lang.VarID, ts ATime, val lang.Val, vw AView) uint32 {
	h := hashWord(hashWord(hashWord(1, int(x)), int(ts)), int(val))
	return hashFinish(hashView(h, vw))
}
