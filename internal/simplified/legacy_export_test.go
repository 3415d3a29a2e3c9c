package simplified

import (
	"reflect"

	"paramra/internal/engine"
)

// LegacyExploreResult is what LegacyExploreForTest measures: the verdict and
// macro-state count of a reference exploration that takes none of the
// optimized fast paths, plus whether the optimized key construction agreed
// with the reference encoding on every single state.
type LegacyExploreResult struct {
	Unsafe      bool
	MacroStates int
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
// worked before the allocation-free exploration core: every successor is
// saturated and goal-checked unconditionally, and every key is encoded in
// full. Along the way it cross-checks the optimized paths state by state:
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
// Because the visited set here is keyed by the reference encoding while the
// production engines key by the optimized one, equal macro-state counts on
// the same system mean the two encodings induce the same visited-set
// membership.
func LegacyExploreForTest(v *Verifier, maxStates int) LegacyExploreResult {
	var r LegacyExploreResult
	ex := newExec(v, nil)
	init := v.initState()
	if viol := ex.saturate(init); viol != nil {
		r.Unsafe, r.MacroStates = true, 1
		return r
	}
	if viol := ex.checkGoalDis(init); viol != nil {
		r.Unsafe, r.MacroStates = true, 1
		return r
	}
	seen := map[string]bool{legacyKey(init): true}
	envOf := map[string]*EnvSet{memKey(init): &init.env}
	queue := []*state{init}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		succs, viol := ex.disSuccessors(st)
		if viol != nil {
			r.Unsafe, r.MacroStates = true, len(seen)
			return r
		}
		parentSuffix := engine.GetKeyEnc()
		parentSuffix.Reset()
		st.appendKeyMem(parentSuffix)
		for _, ns := range succs {
			memChanged := ns.memChanged()
			sizeBefore := envSize(&ns.env)
			if viol := ex.saturate(ns); viol != nil {
				engine.PutKeyEnc(parentSuffix)
				r.Unsafe, r.MacroStates = true, len(seen)
				return r
			}
			if viol := ex.checkGoalDis(ns); viol != nil {
				engine.PutKeyEnc(parentSuffix)
				r.Unsafe, r.MacroStates = true, len(seen)
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
			if seen[ref] {
				continue
			}
			seen[ref] = true
			queue = append(queue, ns)
			if maxStates > 0 && len(seen) > maxStates {
				engine.PutKeyEnc(parentSuffix)
				r.MacroStates, r.HitCap = len(seen), true
				return r
			}
		}
		engine.PutKeyEnc(parentSuffix)
	}
	r.MacroStates = len(seen)
	return r
}
