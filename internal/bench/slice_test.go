package bench

import (
	"context"
	"fmt"
	"testing"

	"paramra/internal/analysis"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/ra"
)

// TestSliceExperimentPreservesVerdicts re-verifies every sliced corpus entry
// with the parameterized verifier; SliceExperiment errors out on any verdict
// flip. It also checks the table reports at least one shrinking family.
func TestSliceExperimentPreservesVerdicts(t *testing.T) {
	rows, err := SliceExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Corpus()) {
		t.Fatalf("experiment covered %d/%d entries", len(rows), len(Corpus()))
	}
	reduced := 0
	for _, r := range rows {
		if r.Stats.Changed() {
			reduced++
		}
	}
	if reduced == 0 {
		t.Error("no corpus entry shrinks; the slicing experiment reports nothing")
	}
}

// TestSliceDifferentialConcrete explores small concrete instances (the full
// RA semantics of internal/ra) original vs sliced, and requires identical
// safety verdicts whenever both explorations finish. It covers every corpus
// entry and 200 generated systems from the profiles served traffic is drawn
// from (default, small and nocas, env loops off).
func TestSliceDifferentialConcrete(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			checkSliceConcrete(t, e.System(), max(e.MinEnv, 1))
		})
	}
	var profs []fuzzgen.Profile
	for _, name := range []string{"default", "small", "nocas"} {
		p, _ := fuzzgen.ProfileByName(name)
		p.EnvLoops = false
		profs = append(profs, p)
	}
	for seed := int64(1); seed <= 200; seed++ {
		prof := profs[seed%int64(len(profs))]
		t.Run(fmt.Sprintf("%s-%d", prof.Name, seed), func(t *testing.T) {
			sys := fuzzgen.Generate(seed, prof)
			n := 0
			if sys.Env != nil {
				n = 1
			}
			checkSliceConcrete(t, sys, n)
		})
	}
}

// checkSliceConcrete compares sys and its slice on the instance with n env
// threads.
func checkSliceConcrete(t *testing.T, sys *lang.System, n int) {
	t.Helper()
	const maxStates = 400_000
	sliced, _ := analysis.Slice(sys, analysis.SliceOptions{})
	orig, err := ra.NewInstance(sys, n)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := ra.NewInstance(sliced, n)
	if err != nil {
		t.Fatal(err)
	}
	resO := orig.ExploreContext(context.Background(), ra.Limits{MaxStates: maxStates, Symmetry: true, Workers: 1})
	resS := cut.ExploreContext(context.Background(), ra.Limits{MaxStates: maxStates, Symmetry: true, Workers: 1})
	if !resO.Complete && !resO.Unsafe || !resS.Complete && !resS.Unsafe {
		t.Skipf("state cap hit (orig complete=%v sliced complete=%v)", resO.Complete, resS.Complete)
	}
	if resO.Unsafe != resS.Unsafe {
		t.Errorf("verdict flipped on the concrete instance (n=%d): original unsafe=%v, sliced unsafe=%v\n%s\nsliced:\n%s",
			n, resO.Unsafe, resS.Unsafe, lang.Print(sys), lang.Print(sliced))
	}
}
