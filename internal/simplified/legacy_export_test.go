package simplified

import (
	"context"
	"reflect"

	"paramra/internal/engine"
	"paramra/internal/lang"
)

// LegacyExploreResult is what LegacyExploreForTest measures: the verdict of
// a reference exploration on integer timestamps that takes none of the
// optimized fast paths, the canonical images of the states it admits, and
// whether the optimized key construction agreed with the reference encoding
// on every single state.
type LegacyExploreResult struct {
	Unsafe bool
	// Images holds the key of the canonical image of every admitted state
	// (canon.go). On a complete SAFE run it must equal the set of keys the
	// canonical search admits.
	Images map[string]bool
	// SpliceMismatches counts states whose optimized key (dis prefix +
	// spliced parent mem/env suffix for memory-untouched successors)
	// differed from the reference full encoding. Must be 0.
	SpliceMismatches int
	// SkipUnsound counts memory-untouched successors whose unconditional
	// re-saturation derived something after all — each one is a counter-
	// example to the saturation-skip purity argument. Must be 0.
	SkipUnsound int
	// EnvConflicts counts successors whose dis memory an earlier state
	// reached with a different env set — each one is a counterexample to
	// the lemma that lets the key leave the env set out. Must be 0.
	EnvConflicts int
	// SharedMemories counts successors whose dis memory an earlier state
	// reached, that is, the states on which the lemma was put to the test.
	SharedMemories int
	// HitCap reports the maxStates budget stopped the search; verdict and
	// counts are then not comparable and the caller should skip the seed.
	HitCap bool
}

// sealKey lists which dis messages of s are sealed. The integer key leaves
// it out, since adjacency already blocks a store between the two messages
// there, but a state's canonical image depends on it.
func sealKey(s *state) string {
	b := make([]byte, len(s.mem.msgs))
	for i, m := range s.mem.msgs {
		b[i] = '0'
		if m.Sealed {
			b[i] = '1'
		}
	}
	return string(b)
}

// canonImage returns the key of s's canonical image: s with every
// variable's dis messages renumbered to canonical timestamps.
func canonImage(ex *exec, s *state) string {
	img := s.clone()
	for x := 0; x < img.mem.NumVars(); x++ {
		ex.canonicalize(img, lang.VarID(x))
	}
	return img.key()
}

// legacyKey encodes a macro-state's identity in one linear pass through
// the appendKey composition, written out longhand here so the test does not
// depend on the split appendKeyDis/appendKeyMem helpers it is checking.
func legacyKey(s *state) string {
	enc := engine.GetKeyEnc()
	defer engine.PutKeyEnc(enc)
	enc.Reset()
	enc.Len(len(s.dis))
	for _, d := range s.dis {
		d.encodeKey(enc)
	}
	enc.Mark('#')
	s.mem.encodeKey(enc)
	return enc.String()
}

// memKey encodes a state's dis memory alone.
func memKey(s *state) string {
	enc := engine.GetKeyEnc()
	defer engine.PutKeyEnc(enc)
	enc.Reset()
	s.mem.encodeKey(enc)
	return enc.String()
}

// sameEnv reports whether two env sets hold the same configurations and
// messages. Copy-on-write clones that still share their maps are equal
// without a look at the entries.
func sameEnv(a, b *EnvSet) bool {
	if reflect.ValueOf(a.Configs).UnsafePointer() == reflect.ValueOf(b.Configs).UnsafePointer() &&
		reflect.ValueOf(a.Msgs).UnsafePointer() == reflect.ValueOf(b.Msgs).UnsafePointer() {
		return true
	}
	if len(a.Configs) != len(b.Configs) || len(a.Msgs) != len(b.Msgs) {
		return false
	}
	for k := range a.Configs {
		if _, ok := b.Configs[k]; !ok {
			return false
		}
	}
	for k := range a.Msgs {
		if _, ok := b.Msgs[k]; !ok {
			return false
		}
	}
	return true
}

// envSize is the number of facts an env set holds; saturation only adds.
func envSize(e *EnvSet) int { return len(e.Configs) + len(e.Msgs) }

// LegacyExploreForTest re-runs the macro-state fixpoint the way the code
// worked before the allocation-free exploration core and canonical
// timestamps: stores take any free integer slot within the budget, every
// successor is saturated and goal-checked unconditionally, and every key is
// encoded in full. It records the canonical image of every state it admits.
// Along the way it cross-checks the optimized paths state by state:
//
//   - the spliced key construction (appendKeyDis + parent suffix reuse for
//     memory-untouched successors) must reproduce the reference encoding
//     byte for byte, and
//   - re-saturating a memory-untouched successor must be a no-op (no env
//     fact added), which is the purity argument the explorers' saturation
//     skip rests on, and
//   - every successor whose dis memory an earlier state reached must carry
//     that state's env set, which is the lemma the key's omission of the
//     env set rests on (DESIGN, "The env set is a function of the dis
//     memory").
//
// The visited set is keyed by the reference encoding plus sealKey, so that
// of two integer states that differ only in which messages are sealed both
// are admitted and both images recorded.
func LegacyExploreForTest(v *Verifier, maxStates int) LegacyExploreResult {
	r := LegacyExploreResult{Images: map[string]bool{}}
	ex := &exec{v: v}
	init := v.initState()
	if viol, _ := ex.saturate(init); viol != nil {
		r.Unsafe = true
		return r
	}
	if viol := ex.checkGoalDis(init); viol != nil {
		r.Unsafe = true
		return r
	}
	seen := map[string]bool{legacyKey(init) + sealKey(init): true}
	r.Images[canonImage(ex, init)] = true
	envOf := map[string]*EnvSet{memKey(init): &init.env}
	queue := []*state{init}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		succs, viol := ex.disSuccessors(st)
		if viol != nil {
			r.Unsafe = true
			return r
		}
		parentSuffix := engine.GetKeyEnc()
		parentSuffix.Reset()
		st.appendKeyMem(parentSuffix)
		for _, ns := range succs {
			memChanged := ns.memChanged()
			sizeBefore := envSize(&ns.env)
			if viol, _ := ex.saturate(ns); viol != nil {
				engine.PutKeyEnc(parentSuffix)
				r.Unsafe = true
				return r
			}
			if viol := ex.checkGoalDis(ns); viol != nil {
				engine.PutKeyEnc(parentSuffix)
				r.Unsafe = true
				return r
			}
			if !memChanged && envSize(&ns.env) != sizeBefore {
				r.SkipUnsound++
			}
			mk := memKey(ns)
			if first := envOf[mk]; first == nil {
				envOf[mk] = &ns.env
			} else {
				r.SharedMemories++
				if !sameEnv(first, &ns.env) {
					r.EnvConflicts++
				}
			}
			ref := legacyKey(ns)
			opt := engine.GetKeyEnc()
			opt.Reset()
			ns.appendKeyDis(opt)
			if memChanged {
				ns.appendKeyMem(opt)
			} else {
				opt.Raw(parentSuffix.Bytes())
			}
			if string(opt.Bytes()) != ref {
				r.SpliceMismatches++
			}
			engine.PutKeyEnc(opt)
			ref += sealKey(ns)
			if seen[ref] {
				continue
			}
			seen[ref] = true
			r.Images[canonImage(ex, ns)] = true
			queue = append(queue, ns)
			if maxStates > 0 && len(seen) > maxStates {
				engine.PutKeyEnc(parentSuffix)
				r.HitCap = true
				return r
			}
		}
		engine.PutKeyEnc(parentSuffix)
	}
	return r
}

// CanonicalStatesForTest runs the fixpoint's search (canonical timestamps,
// one worker) and returns the key of every macro-state it admits, with the
// search's result.
func CanonicalStatesForTest(v *Verifier) (map[string]bool, Result) {
	keys := map[string]bool{}
	res := v.search(context.Background(), nil, 0, func(st *state) { keys[st.key()] = true })
	return keys, res
}
