package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"paramra/internal/simplified"
)

// ParallelRow is one entry's fixpoint measurement.
type ParallelRow struct {
	Name        string        `json:"name"`
	MacroStates int           `json:"macroStates"`
	Wall        time.Duration `json:"wallNs"`
}

// parallelEntries selects the corpus entries worth timing: the searches
// large enough that engine overhead is not the whole measurement.
func parallelEntries() []Entry {
	var out []Entry
	for _, e := range Corpus() {
		v, err := simplified.New(e.System(), simplified.Options{})
		if err != nil {
			continue
		}
		if res := v.VerifyContext(context.TODO()); res.Stats.MacroStates >= 50 {
			out = append(out, e)
		}
	}
	return out
}

// parallelRuns is how many times ParallelExperiment times each entry; the
// row keeps the fastest. With canonical timestamps the heaviest entry
// decides in about a millisecond, where one run's scheduler noise is a
// large share of the wall time, while the minimum of several runs is
// stable.
const parallelRuns = 7

// ParallelExperiment measures VerifyContext wall time over the heavier
// corpus entries, one row per entry, as the minimum of parallelRuns runs.
// The macro-state counts are deterministic; only the wall time varies.
func ParallelExperiment(ctx context.Context) ([]ParallelRow, error) {
	var rows []ParallelRow
	for _, e := range parallelEntries() {
		var row ParallelRow
		for run := 0; run < parallelRuns; run++ {
			v, err := simplified.New(e.System(), simplified.Options{
				Trace:   instr.Trace,
				Metrics: instr.Metrics,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			start := time.Now()
			res := v.VerifyContext(ctx)
			wall := time.Since(start)
			if res.Err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, res.Err)
			}
			if run == 0 || wall < row.Wall {
				row = ParallelRow{Name: e.Name, MacroStates: res.Stats.MacroStates, Wall: wall}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ParallelTable formats the measurements.
func ParallelTable(rows []ParallelRow) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fixpoint wall time on the heavier corpus entries (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		Columns: []string{"benchmark", "macro-states", "time"},
		Notes: []string{
			fmt.Sprintf("entries with at least 50 macro-states; each time is the minimum of %d runs", parallelRuns),
		},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.MacroStates, r.Wall.Round(time.Microsecond))
	}
	return t
}

// ParallelBaseline is the JSON shape of BENCH_parallel.json: the measured
// rows plus the recording machine's GOMAXPROCS and CPU count, which the
// comparator checks (see CheckProcs).
type ParallelBaseline struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"numCPU"`
	Rows       []ParallelRow `json:"rows"`
}

// WriteParallelBaseline stores rows, as ParallelExperiment measured them,
// as a JSON baseline for later comparison, with this process's GOMAXPROCS
// and CPU count.
func WriteParallelBaseline(path string, rows []ParallelRow) error {
	b := ParallelBaseline{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
