package bench

import (
	"context"
	"fmt"

	"paramra/internal/analysis"
	"paramra/internal/simplified"
)

// SliceRow is the per-entry result of the slicing experiment: the size of
// the instance before and after the verdict-preserving slicer, and the
// verdict of the sliced system (which must match the original's).
type SliceRow struct {
	Entry   Entry
	Stats   analysis.SliceStats
	Verdict Verdict
}

// SliceExperiment runs the slicer over the whole corpus and re-verifies the
// sliced systems, reporting the instance-size reduction per benchmark.
func SliceExperiment() ([]SliceRow, error) {
	var out []SliceRow
	for _, e := range Corpus() {
		sliced, stats := analysis.Slice(e.System(), analysis.SliceOptions{})
		v, err := simplified.New(sliced, simplified.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s (sliced): %w", e.Name, err)
		}
		res := v.VerifyContext(context.TODO())
		row := SliceRow{Entry: e, Stats: stats, Verdict: Safe}
		if res.Unsafe {
			row.Verdict = Unsafe
		}
		if row.Verdict != e.Want {
			return nil, fmt.Errorf("%s: slicing changed the verdict to %v (want %v)", e.Name, row.Verdict, e.Want)
		}
		out = append(out, row)
	}
	return out, nil
}

// SliceTable formats the slicing experiment.
func SliceTable(rows []SliceRow) *Table {
	t := &Table{
		Title:   "Verdict-preserving slicing (instance-size reduction per benchmark)",
		Columns: []string{"benchmark", "pcs", "regs", "vars", "verdict", "reduced"},
	}
	reduced := 0
	for _, r := range rows {
		s := r.Stats
		t.AddRow(r.Entry.Name,
			fmt.Sprintf("%d->%d", s.PCsBefore, s.PCsAfter),
			fmt.Sprintf("%d->%d", s.RegsBefore, s.RegsAfter),
			fmt.Sprintf("%d->%d", s.VarsBefore, s.VarsAfter),
			r.Verdict, yesNo(s.Changed()))
		if s.Changed() {
			reduced++
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/%d benchmarks shrink; every sliced system keeps its verdict", reduced, len(rows)))
	return t
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
