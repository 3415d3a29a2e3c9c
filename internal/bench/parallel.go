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

// ParallelRow is one (benchmark, worker count) measurement of the layered
// parallel engine.
type ParallelRow struct {
	Name        string        `json:"name"`
	Workers     int           `json:"workers"`
	MacroStates int           `json:"macroStates"`
	Wall        time.Duration `json:"wallNs"`
	// Speedup is wall(j=1) / wall(j) for the same benchmark.
	Speedup float64 `json:"speedup"`
}

// parallelEntries selects the corpus entries worth timing: the searches
// large enough that engine overhead is not the whole measurement.
func parallelEntries() []Entry {
	var out []Entry
	for _, e := range Corpus() {
		v, err := simplified.New(e.System(), simplified.Options{Workers: 1})
		if err != nil {
			continue
		}
		if res := v.VerifyContext(context.TODO()); res.Stats.MacroStates >= 50 {
			out = append(out, e)
		}
	}
	return out
}

// parallelRuns is how many times ParallelExperiment times each (entry,
// worker count) row; the row keeps the fastest. With canonical timestamps
// the heaviest entry decides in about a millisecond, where one run's
// scheduler noise is a large share of the wall time, while the minimum of
// several runs is stable.
const parallelRuns = 7

// ParallelExperiment measures VerifyContext wall time per worker count over
// the heavier corpus entries, as the minimum of parallelRuns runs. Verdicts
// and statistics are identical across worker counts by construction (see
// internal/engine); only the wall time varies. Note that on a single-CPU
// host (GOMAXPROCS=1) no speedup is possible — the experiment then measures
// the engine's overhead.
func ParallelExperiment(ctx context.Context, workerCounts []int) ([]ParallelRow, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	var rows []ParallelRow
	for _, e := range parallelEntries() {
		base := time.Duration(0)
		for _, j := range workerCounts {
			var row ParallelRow
			for run := 0; run < parallelRuns; run++ {
				v, err := simplified.New(e.System(), simplified.Options{
					Workers: j,
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
					return nil, fmt.Errorf("%s (j=%d): %w", e.Name, j, res.Err)
				}
				if run == 0 || wall < row.Wall {
					row = ParallelRow{
						Name: e.Name, Workers: j,
						MacroStates: res.Stats.MacroStates, Wall: wall,
					}
				}
			}
			if j == workerCounts[0] {
				base = row.Wall
			}
			if row.Wall > 0 {
				row.Speedup = float64(base) / float64(row.Wall)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ParallelTable formats the scaling measurements.
func ParallelTable(rows []ParallelRow) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Parallel engine scaling (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		Columns: []string{"benchmark", "workers", "macro-states", "time", "speedup"},
		Notes: []string{
			"verdicts, witnesses and stats are identical for every worker count (layered engine)",
			"speedup is relative to the first worker count; expect ~1x on single-CPU hosts",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.Workers, r.MacroStates, r.Wall.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	return t
}

// ParallelBaseline is the JSON shape of BENCH_parallel.json: the measured
// rows plus the recording machine's parallelism metadata. The metadata is
// not decorative — wall times recorded at GOMAXPROCS=1 are meaningless as a
// baseline for a multi-core comparison run (the engine cannot overlap
// expansions), so the comparator checks it (see CheckProcs).
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
