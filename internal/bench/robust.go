package bench

import (
	"paramra/internal/ra"
	"paramra/internal/sc"
)

// RobustRow is one data point of the robustness experiment: the same fixed
// instance explored under sequential consistency and under release-acquire.
// An entry is *non-robust* when the violation exists only under RA — the
// benchmarks of Lahav & Margalit [34] that motivate §1's classification.
type RobustRow struct {
	Name     string
	NEnv     int
	SCUnsafe bool
	RAUnsafe bool
	Complete bool
}

// Weak reports an RA-only violation.
func (r RobustRow) Weak() bool { return r.RAUnsafe && !r.SCUnsafe }

// RobustnessExperiment compares SC and RA assert-reachability across the
// corpus, at the smallest meaningful instance size per entry.
func RobustnessExperiment(maxStates int) ([]RobustRow, error) {
	var out []RobustRow
	for _, e := range Corpus() {
		n := e.MinEnv
		if n < 0 {
			n = 1 // safe entries: give them one env thread to act with
		}
		sys := e.System()
		if sys.Env == nil {
			n = 0
		}
		rob, err := sc.CompareRobustness(sys, n, ra.Limits{MaxStates: maxStates})
		if err != nil {
			return nil, err
		}
		out = append(out, RobustRow{
			Name: e.Name, NEnv: n,
			SCUnsafe: rob.SCUnsafe, RAUnsafe: rob.RAUnsafe, Complete: rob.Complete,
		})
	}
	return out, nil
}

// RobustTable formats the robustness classification.
func RobustTable(rows []RobustRow) *Table {
	t := &Table{
		Title:   "Robustness: assert-reachability under SC vs RA (fixed instances)",
		Columns: []string{"benchmark", "#env", "SC", "RA", "classification", "exhaustive"},
	}
	for _, r := range rows {
		class := "robust here"
		switch {
		case r.Weak():
			class = "WEAK (RA-only violation)"
		case r.RAUnsafe && r.SCUnsafe:
			class = "violation also under SC"
		}
		t.AddRow(r.Name, r.NEnv, verdictStr(r.SCUnsafe), verdictStr(r.RAUnsafe), class, r.Complete)
	}
	t.Notes = append(t.Notes,
		"SC executions are RA executions (always reading maximal timestamps), so SC-unsafe ⇒ RA-unsafe",
		"the §1 robustness benchmarks (peterson, dekker, lamport, sb) are exactly the WEAK rows")
	return t
}
