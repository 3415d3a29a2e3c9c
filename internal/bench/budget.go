package bench

import (
	"context"
	"time"

	"paramra/internal/simplified"
)

// BudgetRow is one data point of the timestamp-budget ablation (A3): the
// verifier computes a per-variable integer-timestamp budget of 2·S_v+2;
// widening it must keep verdicts stable while inflating the search space —
// evidence that the computed bound is both sufficient and worth computing
// tightly.
type BudgetRow struct {
	Name    string
	Extra   int
	Unsafe  bool
	Macro   int
	Elapsed time.Duration
}

// BudgetAblation sweeps ExtraSlots over a subset of the corpus.
func BudgetAblation() ([]BudgetRow, error) {
	names := []string{"prodcons-fig1", "mp-litmus", "dekker-ra", "cas-env-supply"}
	var out []BudgetRow
	for _, name := range names {
		e, ok := ByName(name)
		if !ok {
			continue
		}
		sys := e.System()
		for _, extra := range []int{0, 2, 4} {
			v, err := simplified.New(sys, simplified.Options{ExtraSlots: extra, Workers: 1})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res := v.VerifyContext(context.TODO())
			out = append(out, BudgetRow{
				Name: name, Extra: extra, Unsafe: res.Unsafe,
				Macro: res.Stats.MacroStates, Elapsed: time.Since(start),
			})
		}
	}
	return out, nil
}

// BudgetTable formats A3.
func BudgetTable(rows []BudgetRow) *Table {
	t := &Table{
		Title:   "A3: timestamp-budget sensitivity (verdicts stable, cost grows)",
		Columns: []string{"benchmark", "extra slots", "unsafe", "macro-states", "time"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.Extra, r.Unsafe, r.Macro, r.Elapsed.Round(time.Microsecond))
	}
	t.Notes = append(t.Notes, "the computed 2·S_v+2 budget (extra = 0) is provably sufficient; wider budgets only add isomorphic timestamp placements")
	return t
}
