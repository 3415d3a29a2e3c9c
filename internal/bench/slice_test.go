package bench

import (
	"context"
	"testing"

	"paramra/internal/analysis"
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
// RA semantics of internal/ra) of every corpus entry, original vs sliced,
// and requires identical safety verdicts whenever both explorations finish.
func TestSliceDifferentialConcrete(t *testing.T) {
	const maxStates = 400_000
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			sys := e.System()
			sliced, _ := analysis.Slice(sys, analysis.SliceOptions{})
			n := e.MinEnv
			if n < 1 {
				n = 1
			}
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
				t.Errorf("verdict flipped on the concrete instance (n=%d): original unsafe=%v, sliced unsafe=%v",
					n, resO.Unsafe, resS.Unsafe)
			}
		})
	}
}
