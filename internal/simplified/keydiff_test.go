package simplified_test

// Differential property test for the interned-key exploration core: the
// optimized encoding and fast paths (split key encoders, parent-suffix
// splicing, saturation skip) against a reference exploration that uses the
// legacy single-pass encoding and takes no shortcuts. Equal verdicts and
// macro-state counts on the corpus plus a fuzzed system population — with
// the per-state byte-equality checks inside LegacyExploreForTest — pin the
// new representation to the old semantics.

import (
	"context"
	"fmt"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/simplified"
)

// diffOne cross-checks one system: reference exploration vs the sequential
// reference search and VerifyContext at several worker counts. cap bounds
// the reference search (0 = unbounded); a capped-out reference skips the
// system.
func diffOne(t *testing.T, name string, sys *lang.System, cap int) (checked bool) {
	t.Helper()
	vref, err := simplified.New(sys, simplified.Options{})
	if err != nil {
		return false // out of the decidable class; nothing to compare
	}
	ref := simplified.LegacyExploreForTest(vref, cap)
	if ref.SpliceMismatches != 0 {
		t.Errorf("%s: %d spliced keys differ from the legacy encoding", name, ref.SpliceMismatches)
	}
	if ref.SkipUnsound != 0 {
		t.Errorf("%s: %d memory-untouched successors were not at their parent's saturation fixpoint", name, ref.SkipUnsound)
	}
	if ref.HitCap {
		return false
	}

	prodCap := 0
	if cap > 0 {
		prodCap = 2 * cap // never binds when the reference completed
	}
	check := func(mode string, res simplified.Result) {
		if res.Unsafe != ref.Unsafe {
			t.Errorf("%s [%s]: unsafe=%v, reference=%v", name, mode, res.Unsafe, ref.Unsafe)
			return
		}
		if res.Unsafe {
			return // early exit makes counts order-dependent; verdict is the contract
		}
		if !res.Complete {
			t.Errorf("%s [%s]: incomplete run (err=%v)", name, mode, res.Err)
			return
		}
		if res.Stats.MacroStates != ref.MacroStates {
			t.Errorf("%s [%s]: macro-states %d, reference encoding %d",
				name, mode, res.Stats.MacroStates, ref.MacroStates)
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
	return true
}

// TestEncodingDifferentialCorpus runs the differential over every corpus
// entry. -short caps the reference search so the heavyweight entries are
// exercised partially (splice/purity checks still run on every state seen).
func TestEncodingDifferentialCorpus(t *testing.T) {
	cap := 0
	if testing.Short() {
		cap = 3000
	}
	for _, e := range bench.Corpus() {
		diffOne(t, e.Name, e.System(), cap)
	}
}

// TestEncodingDifferentialFuzz runs the differential over a generated
// population of systems (1000 seeds, 150 under -short). Seeds outside the
// decidable class or larger than the reference budget are skipped but
// counted: the test fails if too few systems were actually compared.
func TestEncodingDifferentialFuzz(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 150
	}
	profile := fuzzgen.DefaultProfile()
	checked := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		sys := fuzzgen.Generate(seed, profile)
		if diffOne(t, profile.Name, sys, 4000) {
			checked++
		}
	}
	if checked < seeds/2 {
		t.Fatalf("only %d/%d fuzz seeds were comparable — generator or class filter drifted", checked, seeds)
	}
}
