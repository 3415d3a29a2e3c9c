package bench

import (
	"context"
	"fmt"
	"strings"

	"paramra/internal/ra"
)

// GapRow records, for one unsafe benchmark, how the parameterized verdict
// relates to fixed-size instances: §4.3 opens by noting that for systems
// with a fixed number of components, parameterization is *sound but not
// complete* — a parameterized UNSAFE may require more threads than a given
// deployment has. The row shows the instance-size threshold at which the
// fixed-size system "catches up" with the parameterized verdict.
type GapRow struct {
	Name string
	// ParamUnsafe is the parameterized verdict (always true for rows here).
	ParamUnsafe bool
	// Verdicts[i] is the fixed-instance verdict with i env threads.
	Verdicts []bool
	// Threshold is the least i with Verdicts[i] true (-1 if none ≤ maxN).
	Threshold int
}

// GapExperiment sweeps instance sizes for the unsafe corpus entries that
// need env threads.
func GapExperiment(maxN, maxStates int) ([]GapRow, error) {
	var out []GapRow
	for _, e := range Corpus() {
		if e.Want != Unsafe || e.MinEnv <= 0 {
			continue
		}
		sys := e.System()
		row := GapRow{Name: e.Name, ParamUnsafe: true, Threshold: -1}
		for n := 0; n <= maxN; n++ {
			inst, err := ra.NewInstance(sys, n)
			if err != nil {
				return nil, err
			}
			res := inst.ExploreContext(context.TODO(), ra.Limits{MaxStates: maxStates, Symmetry: true})
			if !res.Unsafe && !res.Complete {
				return nil, fmt.Errorf("%s: instance n=%d not exhausted", e.Name, n)
			}
			row.Verdicts = append(row.Verdicts, res.Unsafe)
			if res.Unsafe && row.Threshold < 0 {
				row.Threshold = n
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// GapTable formats the experiment.
func GapTable(rows []GapRow) *Table {
	t := &Table{
		Title:   "§4.3: parameterization vs fixed-size systems (sound, not complete)",
		Columns: []string{"benchmark", "parameterized", "fixed-size verdicts (n=0,1,…)", "threshold"},
	}
	for _, r := range rows {
		var vs []string
		for _, v := range r.Verdicts {
			if v {
				vs = append(vs, "U")
			} else {
				vs = append(vs, "s")
			}
		}
		t.AddRow(r.Name, "UNSAFE", strings.Join(vs, " "), r.Threshold)
	}
	t.Notes = append(t.Notes,
		"s = safe, U = unsafe; deployments below the threshold are safe although the parameterized system is not",
		"the §4.3 cost bound over-approximates this threshold (see the threads experiment)")
	return t
}
