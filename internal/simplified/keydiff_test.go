package simplified_test

// Differential property test for the exploration core: the fixpoint's search
// (canonical timestamps, split key encoders, parent-suffix splicing,
// saturation skip) against a reference exploration on integer timestamps
// that uses the legacy single-pass encoding and takes no shortcuts. On every
// complete SAFE run the canonical images of the states the reference admits
// must be exactly the states the canonical search admits, and on every run
// the verdicts must agree. The per-state checks inside LegacyExploreForTest
// pin the key construction, the saturation skip, the semi-naive saturation
// (each one must equal the naive closure), and the lemma that lets the key
// leave the env set out: every dis memory the reference reaches more than
// once carries one env set.

import (
	"context"
	"fmt"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// diffOne cross-checks one system: reference exploration vs the canonical
// search, the sequential reference search and VerifyContext at several
// worker counts. cap bounds the reference search (0 = unbounded); a
// capped-out reference skips the system. shared is the number of states
// whose dis memory an earlier state of the reference search reached, on
// which the env-set lemma was checked.
func diffOne(t *testing.T, name string, sys *lang.System, cap int) (checked bool, shared int) {
	t.Helper()
	vref, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		return false, 0 // out of the decidable class; nothing to compare
	}
	ref := simplified.LegacyExploreForTest(vref, cap)
	if ref.EnvConflicts != 0 {
		t.Errorf("%s: %d states reach a dis memory with another env set than an earlier state", name, ref.EnvConflicts)
	}
	if ref.SpliceMismatches != 0 {
		t.Errorf("%s: %d spliced keys differ from the legacy encoding", name, ref.SpliceMismatches)
	}
	if ref.SkipUnsound != 0 {
		t.Errorf("%s: %d memory-untouched successors were not at their parent's saturation fixpoint", name, ref.SkipUnsound)
	}
	if ref.SaturationMismatches != 0 {
		t.Errorf("%s: %d saturations differ from the naive closure", name, ref.SaturationMismatches)
	}
	if ref.HitCap {
		return false, ref.SharedMemories
	}

	prodCap := 0
	if cap > 0 {
		prodCap = 2 * cap // never binds when the reference completed
	}
	vcan, err := simplified.New(sys, simplified.Options{MaxMacroStates: prodCap, Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	admitted, canon := simplified.CanonicalStatesForTest(vcan)
	check := func(mode string, res simplified.Result) {
		if res.Unsafe != ref.Unsafe {
			t.Errorf("%s [%s]: unsafe=%v, reference=%v", name, mode, res.Unsafe, ref.Unsafe)
			return
		}
		if res.Unsafe {
			return // early exit makes the state sets order-dependent; verdict is the contract
		}
		if !res.Complete {
			t.Errorf("%s [%s]: incomplete run (err=%v)", name, mode, res.Err)
			return
		}
		if res.Stats.MacroStates != len(ref.Images) {
			t.Errorf("%s [%s]: macro-states %d, canonical images of the reference %d",
				name, mode, res.Stats.MacroStates, len(ref.Images))
		}
	}
	check("canonical", canon)
	if !canon.Unsafe && canon.Complete {
		missing, extra := 0, 0
		for k := range ref.Images {
			if !admitted[k] {
				missing++
			}
		}
		for k := range admitted {
			if !ref.Images[k] {
				extra++
			}
		}
		if missing+extra != 0 {
			t.Errorf("%s: %d canonical images of reference states not admitted, %d admitted states no reference state maps to",
				name, missing, extra)
		}
	}
	vseq, err := simplified.New(sys, simplified.Options{MaxMacroStates: prodCap})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	check("sequential", simplified.SequentialVerifyForTest(vseq))
	for _, j := range []int{1, 2, 8} {
		vj, err := simplified.New(sys, simplified.Options{Workers: j, MaxMacroStates: prodCap})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(fmt.Sprintf("parallel j=%d", j), vj.VerifyContext(context.Background()))
	}
	return true, ref.SharedMemories
}

// TestEncodingDifferentialCorpus runs the differential over every corpus
// entry. -short caps the reference search so the heavyweight entries are
// exercised partially (splice/purity checks still run on every state seen).
func TestEncodingDifferentialCorpus(t *testing.T) {
	cap := 0
	if testing.Short() {
		cap = 3000
	}
	shared := 0
	for _, e := range bench.Corpus() {
		_, n := diffOne(t, e.Name, e.System(), cap)
		shared += n
	}
	if shared == 0 {
		t.Error("no corpus state reached a dis memory twice: the env-set lemma went unchecked")
	}
}

// TestEncodingDifferentialFuzz runs the differential over a generated
// population of systems: 200 seeds (30 under -short) of each of five
// profiles, the loops profile unrolled twice. Seeds outside the decidable
// class or larger than the reference budget are skipped but counted: the
// test fails if too few systems were actually compared.
func TestEncodingDifferentialFuzz(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	checked, shared, total := 0, 0, 0
	for _, name := range []string{"default", "small", "nocas", "big", "loops"} {
		profile, ok := fuzzgen.ProfileByName(name)
		if !ok {
			t.Fatalf("no fuzz profile %q", name)
		}
		for seed := int64(0); seed < int64(seeds); seed++ {
			sys := fuzzgen.Generate(seed, profile)
			if profile.Loops {
				sys = lang.UnrollSystem(sys, 2)
			}
			ok, n := diffOne(t, fmt.Sprintf("%s/%d", name, seed), sys, 4000)
			if ok {
				checked++
			}
			shared += n
			total++
		}
	}
	if shared == 0 {
		t.Error("no fuzz state reached a dis memory twice: the env-set lemma went unchecked")
	}
	if checked < total/2 {
		t.Fatalf("only %d/%d fuzz seeds were comparable — generator or class filter drifted", checked, total)
	}
	t.Logf("%d/%d fuzz systems compared", checked, total)
}
