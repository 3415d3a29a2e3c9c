package absint

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"paramra/internal/analysis"
	"paramra/internal/lang"
)

// The linter and the prepass read one value analysis: the linter reports
// unreachable-assert on each 'assert false' whose program point the value
// sets prove unreachable, and the prepass answers SAFE without a search
// exactly when that holds for every assert. The tests below hold the two to
// that agreement over the linter's own inputs.

// lintAndPrepass runs the linter and the prepass on the system in file,
// fails t unless the prepass verdict is SAFE exactly when the linter flags
// every assert unreachable, and returns both answers.
func lintAndPrepass(t *testing.T, file string) ([]analysis.Diagnostic, Outcome) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := lang.ParseSystem(string(data))
	if err != nil {
		t.Fatalf("%s: parse: %v", file, err)
	}
	ds := analysis.AnalyzeSystem(sys)
	out, err := Prepass(context.Background(), sys, Options{})
	if err != nil {
		t.Fatalf("%s: prepass: %v", file, err)
	}
	flagged := map[lang.Pos]bool{}
	for _, d := range ds {
		if d.Rule == analysis.RuleUnreachableAssert {
			flagged[d.Pos] = true
		}
	}
	allFlagged := true
	for _, tf := range out.Analysis.Programs {
		for _, edges := range tf.CFG.Out {
			for _, e := range edges {
				if e.Op.Kind == lang.OpAssertFail && !flagged[e.Op.Pos] {
					allFlagged = false
				}
			}
		}
	}
	if allFlagged != (out.Verdict == Safe) {
		t.Errorf("%s: linter flags every assert unreachable = %v, but the prepass answers %s (%s)",
			file, allFlagged, out.Verdict, out.Reason)
	}
	return ds, out
}

// checkVerdicts runs lintAndPrepass over files, compares each prepass
// verdict with want, keyed by base name (every file must have an entry),
// and returns the findings of all files.
func checkVerdicts(t *testing.T, files []string, want map[string]Verdict) []analysis.Diagnostic {
	t.Helper()
	var all []analysis.Diagnostic
	for _, file := range files {
		ds, out := lintAndPrepass(t, file)
		for _, d := range ds {
			d.File = filepath.Base(file)
			all = append(all, d)
		}
		w, ok := want[filepath.Base(file)]
		if !ok {
			t.Errorf("%s: no expected prepass verdict; got %s (%s)", file, out.Verdict, out.Reason)
			continue
		}
		if out.Verdict != w {
			t.Errorf("%s: prepass verdict %s (%s), want %s", file, out.Verdict, out.Reason, w)
		}
	}
	return all
}

// TestDefectFixtures runs the prepass over every seeded-defect fixture of
// the linter's golden harness (internal/analysis/testdata/defects) and pins
// its verdict, which must agree with the fixture's unreachable-assert
// findings. Only the two fixtures that keep a reachable assert are decided
// UNSAFE, by replay; every other assert is unreachable, so SAFE.
func TestDefectFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "analysis", "testdata", "defects", "*.ra"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	want := map[string]Verdict{}
	for _, file := range files {
		want[filepath.Base(file)] = Safe
	}
	want["cas-never-interference.ra"] = Unsafe
	want["write-value-unused.ra"] = Unsafe
	checkVerdicts(t, files, want)
}

// TestShippedSystemsCleanUnderMergedLint: the example systems stay
// diagnostic-free under the one linter, which carries the value-set rules
// the prepass's analysis proves, so the prepass proves none of them SAFE.
// It confirms the UNSAFE ones by replay and leaves the SAFE ones, safe by
// ordering the value sets cannot see, inconclusive.
func TestShippedSystemsCleanUnderMergedLint(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "systems", "*.ra"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped systems found: %v", err)
	}
	ds := checkVerdicts(t, files, map[string]Verdict{
		"barrier.ra":  Inconclusive,
		"chain.ra":    Unsafe,
		"mp.ra":       Inconclusive,
		"peterson.ra": Unsafe,
		"prodcons.ra": Unsafe,
		"spinlock.ra": Inconclusive,
	})
	for _, d := range ds {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
